//! The fixed problem catalogues the workloads draw from. Catalogues are
//! constants; only the draw order, operand seeds and arrival times come
//! from `--seed`.

use winrs_conv::ConvShape;
use winrs_core::Precision;

/// One BFC problem key: a shape and the precision it runs at.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    pub shape: ConvShape,
    pub precision: Precision,
}

impl Key {
    const fn new(n: usize, res: usize, c: usize, f: usize, precision: Precision) -> Key {
        Key {
            shape: ConvShape {
                n,
                ih: res,
                iw: res,
                ic: c,
                oc: c,
                fh: f,
                fw: f,
                ph: f / 2,
                pw: f / 2,
            },
            precision,
        }
    }

    pub fn label(&self) -> String {
        let s = &self.shape;
        format!(
            "({},{},{},{},f{}) {}",
            s.n,
            s.ih,
            s.ic,
            s.oc,
            s.fh,
            match self.precision {
                Precision::Fp32 => "fp32",
                Precision::Fp16 => "fp16",
                Precision::Bf16 => "bf16",
            }
        )
    }
}

const F32: Precision = Precision::Fp32;
const F16: Precision = Precision::Fp16;

/// The paper's Figure 10 FP32 grid scaled to a small CPU host: every key
/// runs as WinRS under the default tuner and takes 7–65 ms per call.
pub const FIG10_LARGE: [Key; 5] = [
    Key::new(4, 56, 64, 3, F32),
    Key::new(4, 28, 128, 3, F32),
    Key::new(2, 28, 64, 5, F32),
    Key::new(2, 14, 128, 7, F32),
    Key::new(2, 56, 32, 9, F32),
];

/// 64 keys in Zipf rank order (index 0 is drawn most often): N 1–4, maps
/// 8–33, C 2–32, f 2–9, 18 of them FP16. Index 1 is routed to `direct` by
/// the tuner, and the FP16 even-filter keys run as `gemm-bfc` (there is no
/// FP16 WinRS kernel for them). 64 keys exceed the 32-entry plan cache and
/// tuner decision cache, so misses and evictions happen beside hits.
pub const MIXED: [Key; 64] = [
    Key::new(2, 16, 8, 3, F32),
    Key::new(2, 32, 4, 2, F32),
    Key::new(2, 16, 16, 4, F16),
    Key::new(2, 33, 4, 2, F32),
    Key::new(1, 16, 16, 7, F32),
    Key::new(2, 12, 8, 3, F16),
    Key::new(2, 16, 8, 5, F32),
    Key::new(1, 24, 8, 2, F16),
    Key::new(2, 16, 16, 7, F32),
    Key::new(4, 16, 8, 2, F32),
    Key::new(2, 24, 16, 4, F16),
    Key::new(1, 8, 32, 7, F32),
    Key::new(2, 32, 8, 4, F32),
    Key::new(4, 8, 8, 5, F16),
    Key::new(1, 32, 32, 7, F32),
    Key::new(2, 16, 16, 6, F32),
    Key::new(1, 12, 4, 4, F32),
    Key::new(2, 20, 8, 8, F32),
    Key::new(2, 33, 8, 2, F16),
    Key::new(3, 20, 12, 3, F32),
    Key::new(2, 32, 32, 3, F32),
    Key::new(1, 8, 2, 3, F16),
    Key::new(2, 8, 16, 7, F32),
    Key::new(4, 16, 4, 7, F32),
    Key::new(1, 24, 4, 4, F16),
    Key::new(2, 28, 32, 5, F32),
    Key::new(4, 32, 16, 3, F32),
    Key::new(1, 16, 8, 3, F16),
    Key::new(2, 24, 8, 7, F32),
    Key::new(1, 33, 16, 2, F16),
    Key::new(4, 8, 4, 7, F32),
    Key::new(2, 16, 32, 7, F32),
    Key::new(1, 32, 16, 7, F32),
    Key::new(2, 24, 4, 2, F16),
    Key::new(4, 8, 8, 7, F32),
    Key::new(1, 16, 2, 7, F32),
    Key::new(2, 16, 4, 3, F16),
    Key::new(1, 24, 16, 7, F32),
    Key::new(2, 8, 8, 7, F32),
    Key::new(4, 16, 16, 7, F32),
    Key::new(1, 33, 8, 4, F16),
    Key::new(1, 8, 8, 7, F32),
    Key::new(2, 24, 16, 7, F32),
    Key::new(4, 24, 8, 7, F32),
    Key::new(1, 16, 4, 7, F32),
    Key::new(4, 8, 4, 3, F32),
    Key::new(2, 32, 8, 7, F32),
    Key::new(1, 24, 32, 7, F32),
    Key::new(4, 24, 16, 2, F16),
    Key::new(2, 8, 4, 7, F32),
    Key::new(1, 32, 8, 7, F32),
    Key::new(4, 16, 8, 7, F32),
    Key::new(2, 16, 8, 5, F16),
    Key::new(1, 24, 2, 7, F32),
    Key::new(2, 33, 16, 7, F32),
    Key::new(4, 24, 8, 4, F16),
    Key::new(2, 32, 16, 7, F32),
    Key::new(1, 33, 8, 7, F32),
    Key::new(4, 8, 32, 3, F16),
    Key::new(2, 16, 2, 7, F32),
    Key::new(1, 8, 16, 3, F32),
    Key::new(1, 33, 32, 7, F32),
    Key::new(2, 8, 2, 7, F32),
    Key::new(4, 33, 4, 2, F16),
];

/// Zipf exponent of the mixed-shapes draw.
pub const MIXED_ZIPF_S: f64 = 1.0;

/// The serve-open job mix: the serve shape and a second key, drawn 3:1.
pub const SERVE_JOBS: [Key; 2] = [Key::new(2, 16, 8, 3, F32), Key::new(2, 16, 8, 5, F32)];

/// Probability of drawing `SERVE_JOBS[0]`.
pub const SERVE_MIX_FIRST: f64 = 0.75;
