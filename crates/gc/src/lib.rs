//! Gradient compression library.
//!
//! Real implementations — operating on real `f32` gradient buffers — of the
//! compression algorithms the paper evaluates, plus the extensions its
//! decision-tree abstraction claims to support (section 4.2.2):
//!
//! * **Sparsification**: [`algorithms::RandomK`] (Stich et al.) and
//!   [`algorithms::Dgc`] (Deep Gradient Compression / Top-K, Lin et al.),
//! * **Quantization**: [`algorithms::EfSignSgd`] (1-bit signs with error
//!   feedback, Karimireddy et al.), [`algorithms::Qsgd`] (stochastic
//!   multi-level), [`algorithms::TernGrad`] (ternary), and
//!   [`algorithms::Fp16`] (half-precision truncation).
//!
//! The crate also provides:
//!
//! * [`error_feedback`] — the error-feedback memory that makes biased
//!   compressors convergent (the paper applies it on both GPU and CPU
//!   compression, section 5.1),
//! * [`timing`] — deterministic compression-time models for GPU and CPU
//!   execution, the "compression time" empirical model of section 4.3 and
//!   the source of Figure 10's size-dependent benefit ratio,
//! * [`aggregate`] — decompress-and-sum aggregation (compressed tensors are
//!   not associatively reducible, the constraint behind Table 2).
//!
//! The paper requires GC algorithms to have a *deterministic compression
//! time and ratio given a tensor size* (section 4.3); this is enforced
//! here by [`GcAlgorithm::compressed_bytes`] being a pure function of the
//! element count.

pub mod aggregate;
pub mod algorithms;
pub mod compressor;
pub mod error_feedback;
pub mod tensor;
pub mod timing;

pub use compressor::{Accumulate, CompressCtx, Compressor, GcAlgorithm};
pub use error_feedback::ErrorFeedback;
pub use tensor::{quantized_code_bits, quantized_wire_bytes, CompressedTensor};
pub use timing::{Device, DeviceProfile, TimingModel};

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::{
        aggregate::{synchronize, synchronize_masked},
        compressor::{Accumulate, CompressCtx, Compressor, GcAlgorithm},
        error_feedback::ErrorFeedback,
        tensor::CompressedTensor,
        timing::{Device, DeviceProfile, TimingModel},
    };
}
