//! Timing decorators built only on the store's public traits.
//!
//! [`TimedBackend`] wraps any [`StorageBackend`] and [`TimedCodec`] wraps a
//! codec built by the store's own built-in factory; [`timed_registry`]
//! registers the codec wrapper under the name `fz`. With both in place the
//! benchmark sees backend, codec and store self time without a line of
//! program code changing. Both open spans only in traced rounds.

use std::cell::Cell;

use fzgpu_core::Shape;
use fzgpu_sim::DeviceSpec;
use fzgpu_store::impls::build_builtin;
use fzgpu_store::{
    BackendStats, Codec, CodecConfig, CodecError, Registry, StorageBackend, StoreError,
};

use crate::spans::span;

thread_local! {
    /// Values the decorated codecs have decoded so far.
    static VALUES_DECODED: Cell<u64> = const { Cell::new(0) };
}

/// Values decoded by [`TimedCodec`] instances since the thread started.
pub fn values_decoded() -> u64 {
    VALUES_DECODED.with(Cell::get)
}

/// A storage backend whose reads and writes are spans.
pub struct TimedBackend<B>(pub B);

impl<B: StorageBackend> StorageBackend for TimedBackend<B> {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let _s = span("backend.write");
        self.0.write_all(bytes)
    }

    fn read_range(&mut self, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let _s = span("backend.read");
        self.0.read_range(offset, len)
    }

    fn stats(&self) -> BackendStats {
        self.0.stats()
    }
}

/// A codec whose encodes and decodes are spans.
pub struct TimedCodec(Box<dyn Codec>);

impl Codec for TimedCodec {
    fn config(&self) -> CodecConfig {
        self.0.config()
    }

    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        let _s = span("codec.encode");
        self.0.encode(data, shape)
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let out = {
            let _s = span("codec.decode");
            self.0.decode(bytes, shape)?
        };
        VALUES_DECODED.with(|v| v.set(v.get() + out.len() as u64));
        Ok(out)
    }

    fn modeled_seconds(&self) -> f64 {
        self.0.modeled_seconds()
    }
}

fn timed_builtin(cfg: &CodecConfig, spec: DeviceSpec) -> Result<Box<dyn Codec>, CodecError> {
    Ok(Box::new(TimedCodec(build_builtin(cfg, spec)?)))
}

/// The built-in registry with `fz` resolved through [`TimedCodec`].
pub fn timed_registry() -> Registry {
    let mut r = Registry::builtin();
    r.register("fz", timed_builtin);
    r
}
