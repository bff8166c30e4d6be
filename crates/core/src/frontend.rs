//! Fused NCO → mixer → CIC1 front-end kernel.
//!
//! Every stage before the first decimation runs at the full ADC rate
//! (64.512 MHz in the DRM preset), so the staged block chain spends
//! most of its time *streaming intermediate rails through memory*: the
//! LO block, then the split I and Q mixer rails, are each written and
//! re-read at the input rate before CIC1 collapses the rate by 16.
//! This module fuses phase generation, the complex multiply and the
//! CIC1 integrator cascade into a single pass over the input block —
//! one loop, no input-rate intermediate buffers — which is exactly the
//! low-latency fused downconversion front end Troeng & Doolittle
//! (arXiv:2102.05906) motivate for cavity-field control.
//!
//! The fused fast path covers an order-2, unit-differential-delay CIC1
//! (the paper's CIC2-decimate-by-16); any other front-end shape falls
//! back to a per-sample staged loop that is bit-exact by construction.
//! The fast path has two bodies: a scalar one, and on x86_64 an AVX2
//! one that is chosen at run time when the CPU reports AVX2. The AVX2
//! body mixes 8 words per vector and runs eight decimation groups as
//! one tile, emitting their comb outputs in closed form (see the `simd`
//! module); a block holding any word outside the `data_bits` range runs
//! the scalar body instead, because its 32-bit lanes are exact only
//! inside that range.
//! Bit-exactness of the fast path follows from two facts:
//!
//! * the inlined multiply–round–clamp is the same arithmetic as
//!   [`FixedMixer::mix`] (`coeff_frac ≥ 1` always, so the half-LSB
//!   constant is well defined), and
//! * the integrators may defer their word-width wrap to the decimation
//!   boundary: `wrapping_add` on `i64` is exact arithmetic mod 2⁶⁴ and
//!   `2^w` divides 2⁶⁴, so every register stays congruent — and after
//!   wrapping, identical — to the per-sample path that wraps on every
//!   addition (the same argument as `CicDecimator::process_block`).

use crate::cic::CicDecimator;
use crate::mixer::FixedMixer;
use crate::nco::LutNco;
use crate::params::DdcConfig;
use ddc_dsp::fixed::{max_signed, min_signed, saturate, trunc_shift, wrap};

/// Runs the fused NCO → mixer → CIC1 pass over `input`, appending the
/// CIC1-rate I and Q outputs to `out_i` / `out_q`. Bit-exact with the
/// staged sequence `nco.fill_block` → `mixer.mix_block_split` →
/// `cic_*.process_block`, and with the per-sample path.
///
/// The caller keeps ownership of the stage objects so the per-sample
/// path, activity probes and retuning keep working unchanged; the
/// kernel reads their state into locals and writes it back at the end.
pub fn process_front_end(
    nco: &mut LutNco,
    mixer: &FixedMixer,
    cic_i: &mut CicDecimator,
    cic_q: &mut CicDecimator,
    input: &[i32],
    out_i: &mut Vec<i64>,
    out_q: &mut Vec<i64>,
) {
    if fusable(cic_i, cic_q) {
        fused_order2(nco, mixer, cic_i, cic_q, input, out_i, out_q);
    } else {
        // Staged per-sample fallback for exotic front-end shapes —
        // bit-exact by construction, zero-allocation, but not the hot
        // path (every preset uses the order-2 CIC1).
        for &x in input {
            let cs = nco.next();
            let m = mixer.mix(i64::from(x), cs);
            if let Some(i1) = cic_i.process(m.i) {
                out_i.push(i1);
            }
            if let Some(q1) = cic_q.process(m.q) {
                out_q.push(q1);
            }
        }
    }
}

/// Short label of the kernel [`process_front_end`] will run for these
/// stage objects — the name per-stage telemetry reports. Resolved the
/// same way the dispatch above resolves it, including the runtime AVX2
/// probe, so the label always matches the code that actually runs.
pub fn front_end_kernel_label(
    mixer: &FixedMixer,
    cic_i: &CicDecimator,
    cic_q: &CicDecimator,
) -> &'static str {
    if !fusable(cic_i, cic_q) {
        return "staged_scalar";
    }
    #[cfg(target_arch = "x86_64")]
    if simd::usable(mixer, cic_i) {
        return "fused_avx2";
    }
    let _ = mixer;
    "fused_scalar"
}

/// The fused fast path covers an order-2, `M == 1` CIC1 on both rails.
fn fusable(cic_i: &CicDecimator, cic_q: &CicDecimator) -> bool {
    cic_i.order() == 2
        && cic_i.diff_delay() == 1
        && cic_q.order() == 2
        && cic_q.diff_delay() == 1
        && cic_i.decimation() == cic_q.decimation()
}

/// The fused fast path: the AVX2 body when the CPU and the stage widths
/// allow it, the scalar body otherwise.
fn fused_order2(
    nco: &mut LutNco,
    mixer: &FixedMixer,
    cic_i: &mut CicDecimator,
    cic_q: &mut CicDecimator,
    input: &[i32],
    out_i: &mut Vec<i64>,
    out_q: &mut Vec<i64>,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::usable(mixer, cic_i) {
        return simd::fused_order2_avx2(nco, mixer, cic_i, cic_q, input, out_i, out_q);
    }
    fused_order2_scalar(nco, mixer, cic_i, cic_q, input, out_i, out_q);
}

/// The scalar fused body: four-wide oscillator/mixer lanes feeding the
/// serial integrator cascade.
fn fused_order2_scalar(
    nco: &mut LutNco,
    mixer: &FixedMixer,
    cic_i: &mut CicDecimator,
    cic_q: &mut CicDecimator,
    input: &[i32],
    out_i: &mut Vec<i64>,
    out_q: &mut Vec<i64>,
) {
    // NCO constants and state, hoisted as in `LutNco::fill_block`.
    let addr_bits = nco.addr_bits();
    let n_shift = 32 - addr_bits;
    let n_mask = (1u32 << addr_bits) - 1;
    let quarter = 1u32 << (addr_bits - 2);
    let word = nco.tuning_word();
    let table = nco.table();
    let mut phase = nco.phase();
    // Mixer constants, hoisted as in `FixedMixer::mix_block_split`.
    let half = 1i64 << (mixer.coeff_frac() - 1);
    let m_shift = mixer.coeff_frac();
    let top = max_signed(mixer.data_bits());
    let bot = min_signed(mixer.data_bits());
    // CIC state in locals, as in `CicDecimator::block_order2`.
    let r = cic_i.decimation() as usize;
    let w = cic_i.register_bits();
    let out_shift = cic_i.output_shift();
    let out_bits = cic_i.out_bits();
    let (mut ai0, mut ai1, mut di0, mut di1, start_phase) = cic_i.order2_state();
    let (mut aq0, mut aq1, mut dq0, mut dq1, _) = cic_q.order2_state();
    let mut cic_phase = start_phase as usize;

    out_i.reserve(input.len() / r + 1);
    out_q.reserve(input.len() / r + 1);

    let mut i = 0;
    while i < input.len() {
        let take = (r - cic_phase).min(input.len() - i);
        let group = &input[i..i + take];
        // 4-wide lanes: the oscillator/mixer arithmetic for four
        // samples is computed into lane arrays first (independent
        // work the compiler can interleave or vectorise), then the
        // serially-dependent integrator cascade consumes the lanes.
        let mut quads = group.chunks_exact(4);
        for quad in quads.by_ref() {
            let mut mi = [0i64; 4];
            let mut mq = [0i64; 4];
            for (k, &x) in quad.iter().enumerate() {
                let idx = phase >> n_shift;
                let sin = i64::from(table[(idx & n_mask) as usize]);
                let cos = i64::from(table[(idx.wrapping_add(quarter) & n_mask) as usize]);
                phase = phase.wrapping_add(word);
                let xw = i64::from(x);
                mi[k] = ((xw * cos + half) >> m_shift).clamp(bot, top);
                mq[k] = ((xw * -sin + half) >> m_shift).clamp(bot, top);
            }
            for k in 0..4 {
                ai0 = ai0.wrapping_add(mi[k]);
                ai1 = ai1.wrapping_add(ai0);
                aq0 = aq0.wrapping_add(mq[k]);
                aq1 = aq1.wrapping_add(aq0);
            }
        }
        for &x in quads.remainder() {
            let idx = phase >> n_shift;
            let sin = i64::from(table[(idx & n_mask) as usize]);
            let cos = i64::from(table[(idx.wrapping_add(quarter) & n_mask) as usize]);
            phase = phase.wrapping_add(word);
            let xw = i64::from(x);
            let mi = ((xw * cos + half) >> m_shift).clamp(bot, top);
            let mq = ((xw * -sin + half) >> m_shift).clamp(bot, top);
            ai0 = ai0.wrapping_add(mi);
            ai1 = ai1.wrapping_add(ai0);
            aq0 = aq0.wrapping_add(mq);
            aq1 = aq1.wrapping_add(aq0);
        }
        i += take;
        cic_phase += take;
        if cic_phase == r {
            cic_phase = 0;
            ai0 = wrap(ai0, w);
            ai1 = wrap(ai1, w);
            aq0 = wrap(aq0, w);
            aq1 = wrap(aq1, w);
            out_i.push(comb2_output(
                ai1, &mut di0, &mut di1, w, out_shift, out_bits,
            ));
            out_q.push(comb2_output(
                aq1, &mut dq0, &mut dq1, w, out_shift, out_bits,
            ));
        }
    }

    nco.set_phase(phase);
    cic_i.set_order2_state(ai0, ai1, di0, di1, cic_phase as u32);
    cic_q.set_order2_state(aq0, aq1, dq0, dq1, cic_phase as u32);
}

/// AVX2 fused front end (x86_64, runtime-detected). The mixer runs
/// 8-wide in `i32` lanes (phase vector arithmetic, two table gathers,
/// `mullo`, round-shift-clamp), and the order-2 integrator cascade over
/// a decimation group of `g` samples collapses to two sums:
///
/// ```text
/// a1' = a1 + g·a0 + W      a0' = a0 + S      S = Σₖ mₖ,  W = Σₖ (g−k)·mₖ
/// ```
///
/// (after sample `k` the first integrator holds `a0 + Σ_{j≤k} m_j`, the
/// second accumulates each of those, and `m_j` appears in `g−j` of
/// them). `W` needs no per-sample weights: a running sum of the lane
/// sums over the group's vectors weights vector `v` by `V−v`, and one
/// multiply per group turns that into `W`.
///
/// On a group boundary with at least `8r` words left, eight whole groups
/// run as one tile. Their 32 lane accumulators reduce in one `hadd` tree
/// to one vector per sum, lane `j` holding group `j`, and the comb
/// outputs follow in closed form. With `A0_j` the first integrator before
/// group `j` (`a0` plus an exclusive prefix sum of `S`), the first comb
/// stage outputs the second integrator's growth over the group and the
/// second stage differences those:
///
/// ```text
/// c1_j = r·A0_j + W_j        c2_j = c1_j − c1_{j−1}        (mod 2^w)
/// ```
///
/// The registers are written back once per tile. Partial groups at block
/// edges, and registers wider than 32 bits, take one group at a time.
///
/// Bit-exactness:
///
/// * the mixer product plus the rounding constant fits `i32` for every
///   word inside the `data_bits` range ([`usable`] requires
///   `data_bits + coeff_bits ≤ 32`), so the lane arithmetic equals the
///   `i64` arithmetic of [`FixedMixer::mix`]. Nothing upstream bounds an
///   ADC word, so each call first takes a vector min/max over its block
///   and hands a block with any word outside that range to the scalar
///   body, which is exact for every `i32`;
/// * the sums wrap in `i32` lanes, which is exact arithmetic mod 2³². For
///   a register of `w ≤ 32` bits, 2^w divides 2³², so every register and
///   comb output, being reduced mod 2^w, is exact — the same congruence
///   argument as the scalar path's deferred wrap. A wider register needs
///   the true sums, so [`usable`] then requires `|W|` to fit `i32`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{comb2_output, fused_order2_scalar};
    use crate::cic::CicDecimator;
    use crate::mixer::FixedMixer;
    use crate::nco::LutNco;
    use ddc_dsp::fixed::{max_signed, min_signed, wrap};
    use std::arch::x86_64::*;

    /// Preconditions for the 32-bit lane arithmetic to be exact, plus
    /// the runtime CPU check. Input words are checked per call.
    pub fn usable(mixer: &FixedMixer, cic: &CicDecimator) -> bool {
        let db = mixer.data_bits();
        let cb = mixer.coeff_frac() + 1;
        let r = u128::from(cic.decimation());
        // Mixer product + rounding constant fits i32 …
        db + cb <= 32
            // … group sums mod 2³² suffice for a register of ≤ 32 bits;
            // a wider one needs |W| ≤ r(r+1)/2 · 2^(db−1) to fit i32 …
            && (cic.register_bits() <= 32 || (r * (r + 1) / 2) << (db - 1) <= 1 << 31)
            // … and the CPU actually has the instructions.
            && is_x86_feature_detected!("avx2")
    }

    /// Safe wrapper; callers run it only after [`usable`] held.
    pub fn fused_order2_avx2(
        nco: &mut LutNco,
        mixer: &FixedMixer,
        cic_i: &mut CicDecimator,
        cic_q: &mut CicDecimator,
        input: &[i32],
        out_i: &mut Vec<i64>,
        out_q: &mut Vec<i64>,
    ) {
        // SAFETY: every caller checks `usable`, which includes the
        // runtime AVX2 probe, before calling this wrapper.
        unsafe { run(nco, mixer, cic_i, cic_q, input, out_i, out_q) }
    }

    /// Loop-invariant values of one call.
    struct Consts {
        // NCO: the sine table (`2^addr_bits` entries), lane phase
        // offsets `k·word`, one vector's advance `8·word`, the cosine's
        // quarter-turn offset and the phase → index shift.
        table: *const i32,
        lane_ids: __m256i,
        steps: __m256i,
        word8: __m256i,
        quarter: __m256i,
        shift_n: __m128i,
        // Mixer rounding constant, shift and clamp bounds.
        half: __m256i,
        shift_m: __m128i,
        top: __m256i,
        bot: __m256i,
        // CIC: decimation, one group's phase advance, register width and
        // the shift that wraps a lane to it, output shift and bounds.
        r: usize,
        group_turn: u32,
        w: u32,
        wrap_shift: __m128i,
        out_shift: __m128i,
        out_top: __m256i,
        out_bot: __m256i,
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. Memory accesses stay in bounds for
    /// any input: vector loads read `len` words from the pointer
    /// `group_sums` gets, which callers keep inside `input`, and table
    /// gathers index with a phase's top `addr_bits` bits, below the
    /// table length asserted here.
    #[target_feature(enable = "avx2")]
    unsafe fn run(
        nco: &mut LutNco,
        mixer: &FixedMixer,
        cic_i: &mut CicDecimator,
        cic_q: &mut CicDecimator,
        input: &[i32],
        out_i: &mut Vec<i64>,
        out_q: &mut Vec<i64>,
    ) {
        let top = max_signed(mixer.data_bits()) as i32;
        let bot = min_signed(mixer.data_bits()) as i32;
        if !in_range(input, bot, top) {
            return fused_order2_scalar(nco, mixer, cic_i, cic_q, input, out_i, out_q);
        }
        let addr_bits = nco.addr_bits();
        let table = nco.table();
        assert_eq!(table.len(), 1 << addr_bits, "NCO table covers one turn");
        let word = nco.tuning_word();
        let mut phase = nco.phase();
        let r = cic_i.decimation() as usize;
        let w = cic_i.register_bits();
        let out_shift = cic_i.output_shift();
        let out_bits = cic_i.out_bits();
        let lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let c = Consts {
            table: table.as_ptr(),
            lane_ids,
            // mullo wraps mod 2³², matching u32 phase math.
            steps: _mm256_mullo_epi32(_mm256_set1_epi32(word as i32), lane_ids),
            word8: _mm256_set1_epi32(word.wrapping_mul(8) as i32),
            quarter: _mm256_set1_epi32(1 << 30),
            shift_n: _mm_cvtsi32_si128((32 - addr_bits) as i32),
            half: _mm256_set1_epi32(1 << (mixer.coeff_frac() - 1)),
            shift_m: _mm_cvtsi32_si128(mixer.coeff_frac() as i32),
            top: _mm256_set1_epi32(top),
            bot: _mm256_set1_epi32(bot),
            r,
            group_turn: word.wrapping_mul(r as u32),
            w,
            wrap_shift: _mm_cvtsi32_si128(32 - w.min(32) as i32),
            out_shift: _mm_cvtsi32_si128(out_shift as i32),
            out_top: _mm256_set1_epi32(max_signed(out_bits).min(i64::from(i32::MAX)) as i32),
            out_bot: _mm256_set1_epi32(min_signed(out_bits).max(i64::from(i32::MIN)) as i32),
        };
        let (ai0, ai1, di0, di1, start_phase) = cic_i.order2_state();
        let (aq0, aq1, dq0, dq1, _) = cic_q.order2_state();
        let mut st_i = [ai0, ai1, di0, di1];
        let mut st_q = [aq0, aq1, dq0, dq1];
        let mut cic_phase = start_phase as usize;
        let tiles = w <= 32;

        out_i.reserve(input.len() / r + 1);
        out_q.reserve(input.len() / r + 1);

        let mut i = 0;
        while i < input.len() {
            let rest = input.len() - i;
            let x = input.as_ptr().add(i);
            if tiles && cic_phase == 0 && rest >= 8 * r {
                tile(&c, x, phase, &mut st_i, &mut st_q, out_i, out_q);
                phase = phase.wrapping_add(c.group_turn.wrapping_mul(8));
                i += 8 * r;
                continue;
            }
            let take = (r - cic_phase).min(rest);
            let [s_i, w_i, s_q, w_q] = group_sums(&c, x, take, phase);
            phase = phase.wrapping_add(word.wrapping_mul(take as u32));
            let g = take as i64;
            for (st, s, ws) in [(&mut st_i, s_i, w_i), (&mut st_q, s_q, w_q)] {
                st[1] = st[1]
                    .wrapping_add(g.wrapping_mul(st[0]))
                    .wrapping_add(i64::from(hsum(ws)));
                st[0] = st[0].wrapping_add(i64::from(hsum(s)));
            }
            i += take;
            cic_phase += take;
            if cic_phase == r {
                cic_phase = 0;
                for (st, out) in [(&mut st_i, &mut *out_i), (&mut st_q, &mut *out_q)] {
                    let [a0, a1, d0, d1] = st;
                    *a0 = wrap(*a0, w);
                    *a1 = wrap(*a1, w);
                    out.push(comb2_output(*a1, d0, d1, w, out_shift, out_bits));
                }
            }
        }

        nco.set_phase(phase);
        let [a0, a1, d0, d1] = st_i;
        cic_i.set_order2_state(a0, a1, d0, d1, cic_phase as u32);
        let [a0, a1, d0, d1] = st_q;
        cic_q.set_order2_state(a0, a1, d0, d1, cic_phase as u32);
    }

    /// Whether every word of `input` lies in `[bot, top]`.
    #[target_feature(enable = "avx2")]
    unsafe fn in_range(input: &[i32], bot: i32, top: i32) -> bool {
        let mut lo = _mm256_set1_epi32(top);
        let mut hi = _mm256_set1_epi32(bot);
        let mut words = input.chunks_exact(8);
        for v in words.by_ref() {
            let v = _mm256_loadu_si256(v.as_ptr() as *const __m256i);
            lo = _mm256_min_epi32(lo, v);
            hi = _mm256_max_epi32(hi, v);
        }
        let mut lanes = [[0i32; 8]; 2];
        _mm256_storeu_si256(lanes[0].as_mut_ptr() as *mut __m256i, lo);
        _mm256_storeu_si256(lanes[1].as_mut_ptr() as *mut __m256i, hi);
        let rest = words.remainder();
        lanes[0].iter().chain(rest).all(|&x| x >= bot)
            && lanes[1].iter().chain(rest).all(|&x| x <= top)
    }

    /// Eight whole decimation groups from a group boundary: `8r` words
    /// at `x`, mixed from NCO phase `phase`. Appends eight outputs per
    /// rail and advances the rails' `(a0, a1, d0, d1)`.
    ///
    /// # Safety
    ///
    /// AVX2, and `x` valid for `8r` reads.
    #[target_feature(enable = "avx2")]
    unsafe fn tile(
        c: &Consts,
        mut x: *const i32,
        phase: u32,
        st_i: &mut [i64; 4],
        st_q: &mut [i64; 4],
        out_i: &mut Vec<i64>,
        out_q: &mut Vec<i64>,
    ) {
        // The hadd tree, fed two groups at a time: level one pairs
        // groups (2j, 2j+1), level two pairs those within each half of
        // the tile, and `hsum_halves` joins the halves.
        let zero = _mm256_setzero_si256();
        let mut halves = [[zero; 4]; 2];
        let mut ph = phase;
        for half in &mut halves {
            let mut pairs = [[zero; 4]; 2];
            for pair in &mut pairs {
                let a = group_sums(c, x, c.r, ph);
                let b = group_sums(c, x.add(c.r), c.r, ph.wrapping_add(c.group_turn));
                for k in 0..4 {
                    pair[k] = _mm256_hadd_epi32(a[k], b[k]);
                }
                x = x.add(2 * c.r);
                ph = ph.wrapping_add(c.group_turn.wrapping_mul(2));
            }
            for k in 0..4 {
                half[k] = _mm256_hadd_epi32(pairs[0][k], pairs[1][k]);
            }
        }
        let [lo, hi] = halves;
        let s_i = hsum_halves(lo[0], hi[0]);
        let w_i = hsum_halves(lo[1], hi[1]);
        let s_q = hsum_halves(lo[2], hi[2]);
        let w_q = hsum_halves(lo[3], hi[3]);
        comb_tile(c, s_i, w_i, st_i, out_i);
        comb_tile(c, s_q, w_q, st_q, out_q);
    }

    /// Mixes the `len` words at `x` from NCO phase `phase` and returns
    /// lane partial sums `[S_i, W_i, S_q, W_q]`: summed over the lanes,
    /// `S = Σₖ mₖ` and `W = Σₖ (len−k)·mₖ`, both mod 2³².
    ///
    /// # Safety
    ///
    /// AVX2, and `x` valid for `len` reads. The last partial vector is a
    /// masked load, so nothing past `len` is read.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn group_sums(c: &Consts, x: *const i32, len: usize, phase: u32) -> [__m256i; 4] {
        let zero = _mm256_setzero_si256();
        // acc = [S_i, R_i, S_q, R_q]: after each vector S += m, R += S,
        // so R weights vector v by V − v.
        let mut acc = [zero; 4];
        let mut ph = _mm256_add_epi32(_mm256_set1_epi32(phase as i32), c.steps);
        let full = len / 8;
        for v in 0..full {
            let xv = _mm256_loadu_si256(x.add(8 * v) as *const __m256i);
            accumulate(c, xv, ph, &mut acc);
            ph = _mm256_add_epi32(ph, c.word8);
        }
        let tail = len % 8;
        if tail != 0 {
            // Masked-off lanes load 0, and a zero word mixes to 0.
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail as i32), c.lane_ids);
            let xv = _mm256_maskload_epi32(x.add(8 * full), mask);
            accumulate(c, xv, ph, &mut acc);
        }
        // Lane l of vector v has weight len − 8v − l = 8(V − v) − off_l.
        let vecs = len.div_ceil(8);
        let off = _mm256_add_epi32(c.lane_ids, _mm256_set1_epi32((8 * vecs - len) as i32));
        let [s_i, r_i, s_q, r_q] = acc;
        let w_i = _mm256_sub_epi32(_mm256_slli_epi32::<3>(r_i), _mm256_mullo_epi32(s_i, off));
        let w_q = _mm256_sub_epi32(_mm256_slli_epi32::<3>(r_q), _mm256_mullo_epi32(s_q, off));
        [s_i, w_i, s_q, w_q]
    }

    /// Mixes eight words `x` at lane phases `ph` and folds the outputs
    /// into the running sums `[S_i, R_i, S_q, R_q]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate(c: &Consts, x: __m256i, ph: __m256i, acc: &mut [__m256i; 4]) {
        // The phase's top addr_bits bits index the table, so a quarter
        // turn of phase is a quarter of the table, wrapping like the
        // scalar `(idx + quarter) & mask`.
        let sin_idx = _mm256_srl_epi32(ph, c.shift_n);
        let cos_idx = _mm256_srl_epi32(_mm256_add_epi32(ph, c.quarter), c.shift_n);
        let sin = _mm256_i32gather_epi32::<4>(c.table, sin_idx);
        let cos = _mm256_i32gather_epi32::<4>(c.table, cos_idx);
        let pi = _mm256_add_epi32(_mm256_mullo_epi32(x, cos), c.half);
        let pq = _mm256_sub_epi32(c.half, _mm256_mullo_epi32(x, sin));
        let mi = _mm256_max_epi32(
            _mm256_min_epi32(_mm256_sra_epi32(pi, c.shift_m), c.top),
            c.bot,
        );
        let mq = _mm256_max_epi32(
            _mm256_min_epi32(_mm256_sra_epi32(pq, c.shift_m), c.top),
            c.bot,
        );
        acc[0] = _mm256_add_epi32(acc[0], mi);
        acc[1] = _mm256_add_epi32(acc[1], acc[0]);
        acc[2] = _mm256_add_epi32(acc[2], mq);
        acc[3] = _mm256_add_epi32(acc[3], acc[2]);
    }

    /// Emits the comb outputs of a tile in closed form from its group
    /// sums (lane `j` for group `j`) and advances the rail's
    /// `(a0, a1, d0, d1)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn comb_tile(
        c: &Consts,
        s: __m256i,
        wsum: __m256i,
        st: &mut [i64; 4],
        out: &mut Vec<i64>,
    ) {
        let [a0, a1, d0, d1] = *st;
        // On a boundary the first comb's delay line holds a1, so c1_0 is
        // group 0's growth of a1 alone.
        debug_assert_eq!(a1, d0, "tile starts on a group boundary");
        // Inclusive prefix sum of S: within each 128-bit half, then the
        // low half's total carried into the high half.
        let mut p = _mm256_add_epi32(s, _mm256_slli_si256::<4>(s));
        p = _mm256_add_epi32(p, _mm256_slli_si256::<8>(p));
        let carry = _mm256_permute2x128_si256::<0x08>(_mm256_shuffle_epi32::<0xFF>(p), p);
        p = _mm256_add_epi32(p, carry);
        let a0_before = _mm256_add_epi32(_mm256_set1_epi32(a0 as i32), _mm256_sub_epi32(p, s));
        let c1 = _mm256_add_epi32(
            _mm256_mullo_epi32(a0_before, _mm256_set1_epi32(c.r as i32)),
            wsum,
        );
        let c1_prev = _mm256_blend_epi32::<1>(
            _mm256_permutevar8x32_epi32(c1, _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6)),
            _mm256_set1_epi32(d1 as i32),
        );
        let c2 = _mm256_sub_epi32(c1, c1_prev);
        // Wrap to w bits, truncate-shift, saturate.
        let c2 = _mm256_sra_epi32(_mm256_sll_epi32(c2, c.wrap_shift), c.wrap_shift);
        let y = _mm256_sra_epi32(c2, c.out_shift);
        let y = _mm256_max_epi32(_mm256_min_epi32(y, c.out_top), c.out_bot);
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, y);
        out.extend(lanes.map(i64::from));
        let a1 = wrap(a1.wrapping_add(i64::from(hsum(c1))), c.w);
        *st = [
            wrap(
                a0.wrapping_add(i64::from(_mm256_extract_epi32::<7>(p))),
                c.w,
            ),
            a1,
            a1,
            wrap(i64::from(_mm256_extract_epi32::<7>(c1)), c.w),
        ];
    }

    /// The last level of the tile's `hadd` tree: `lo` holds the partial
    /// sums of groups 0–3 (one 128-bit half per lane half of the input
    /// vectors), `hi` those of groups 4–7; lane `j` of the result is
    /// group `j`'s total.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_halves(lo: __m256i, hi: __m256i) -> __m256i {
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(lo, hi),
            _mm256_permute2x128_si256::<0x31>(lo, hi),
        )
    }

    /// Wrapping sum of the eight lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256i) -> i32 {
        let t = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let t = _mm_add_epi32(t, _mm_shuffle_epi32::<0x4E>(t));
        let t = _mm_add_epi32(t, _mm_shuffle_epi32::<0xB1>(t));
        _mm_cvtsi128_si32(t)
    }
}

/// The order-2 comb pair and the truncate-saturate output stage, shared
/// by the scalar and SIMD fused kernels.
#[inline]
fn comb2_output(a1: i64, d0: &mut i64, d1: &mut i64, w: u32, out_shift: u32, out_bits: u32) -> i64 {
    let mut v = a1;
    let t = *d0;
    *d0 = v;
    v = wrap(v.wrapping_sub(t), w);
    let t = *d1;
    *d1 = v;
    v = wrap(v.wrapping_sub(t), w);
    saturate(trunc_shift(v, out_shift), out_bits)
}

/// A self-contained fused front end: owns the NCO, mixer and the two
/// CIC1 rails, so callers and benchmarks can run the fused kernel
/// without assembling the pieces themselves.
#[derive(Clone, Debug)]
pub struct FusedFrontEnd {
    nco: LutNco,
    mixer: FixedMixer,
    cic_i: CicDecimator,
    cic_q: CicDecimator,
}

impl FusedFrontEnd {
    /// Builds the front end of `config`'s chain (NCO, mixer, CIC1).
    pub fn new(config: &DdcConfig) -> Self {
        config.validate().expect("invalid DDC configuration");
        let f = config.format;
        let mk_cic = || {
            CicDecimator::new(
                config.cic1_order,
                config.cic1_decim,
                f.data_bits,
                f.data_bits,
            )
        };
        FusedFrontEnd {
            nco: LutNco::new(config.tuning_word(), f.lut_addr_bits, f.coeff_bits),
            mixer: FixedMixer::new(f.data_bits, f.coeff_bits),
            cic_i: mk_cic(),
            cic_q: mk_cic(),
        }
    }

    /// Assembles a front end from already-built stages — used by the
    /// equivalence tests to cover arbitrary CIC orders and widths.
    pub fn from_parts(
        nco: LutNco,
        mixer: FixedMixer,
        cic_i: CicDecimator,
        cic_q: CicDecimator,
    ) -> Self {
        FusedFrontEnd {
            nco,
            mixer,
            cic_i,
            cic_q,
        }
    }

    /// Processes one input block, appending CIC1-rate I/Q rail outputs
    /// to `out_i` / `out_q`. Bit-exact with the staged stage-by-stage
    /// chain over any chunking of the input.
    pub fn process_block(&mut self, input: &[i32], out_i: &mut Vec<i64>, out_q: &mut Vec<i64>) {
        process_front_end(
            &mut self.nco,
            &self.mixer,
            &mut self.cic_i,
            &mut self.cic_q,
            input,
            out_i,
            out_q,
        );
    }

    /// Retunes the NCO without flushing filter state.
    pub fn set_tuning_word(&mut self, word: u32) {
        self.nco.set_tuning_word(word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::tuning_word;
    use rand::{Rng, SeedableRng};

    /// The staged per-sample reference over `fe`'s stages: NCO, mixer,
    /// then each CIC1 rail, one word at a time. With `retune =
    /// Some((at, word))` the NCO switches to `word` before sample `at`.
    fn staged_reference(
        fe: &FusedFrontEnd,
        input: &[i32],
        retune: Option<(usize, u32)>,
    ) -> (Vec<i64>, Vec<i64>) {
        let mut fe = fe.clone();
        let mut out_i = Vec::new();
        let mut out_q = Vec::new();
        for (k, &x) in input.iter().enumerate() {
            if let Some((_, word)) = retune.filter(|&(at, _)| at == k) {
                fe.set_tuning_word(word);
            }
            let cs = fe.nco.next();
            let m = fe.mixer.mix(i64::from(x), cs);
            if let Some(y) = fe.cic_i.process(m.i) {
                out_i.push(y);
            }
            if let Some(y) = fe.cic_q.process(m.q) {
                out_q.push(y);
            }
        }
        (out_i, out_q)
    }

    type FusedBody = fn(
        &mut LutNco,
        &FixedMixer,
        &mut CicDecimator,
        &mut CicDecimator,
        &[i32],
        &mut Vec<i64>,
        &mut Vec<i64>,
    );

    /// Every fused body this host can run for `fe`'s shape: the scalar
    /// one always, the AVX2 one when the CPU and the stage widths allow
    /// it, so both stay under test on AVX2 hosts.
    fn fused_bodies(fe: &FusedFrontEnd) -> Vec<(&'static str, FusedBody)> {
        let mut bodies: Vec<(&'static str, FusedBody)> = vec![("scalar", fused_order2_scalar)];
        #[cfg(target_arch = "x86_64")]
        if simd::usable(&fe.mixer, &fe.cic_i) {
            bodies.push(("avx2", simd::fused_order2_avx2));
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = fe;
        bodies
    }

    /// Runs one fused body over `input` in `chunk`-word pieces, retuning
    /// as [`staged_reference`] does (the pieces restart at the retune).
    fn run_body(
        fe: &FusedFrontEnd,
        body: FusedBody,
        input: &[i32],
        chunk: usize,
        retune: Option<(usize, u32)>,
    ) -> (Vec<i64>, Vec<i64>) {
        let mut fe = fe.clone();
        let mut out_i = Vec::new();
        let mut out_q = Vec::new();
        let (at, word) = retune.unwrap_or((input.len(), fe.nco.tuning_word()));
        let (head, tail) = input.split_at(at);
        for (part, word) in [(head, fe.nco.tuning_word()), (tail, word)] {
            fe.set_tuning_word(word);
            for piece in part.chunks(chunk) {
                body(
                    &mut fe.nco,
                    &fe.mixer,
                    &mut fe.cic_i,
                    &mut fe.cic_q,
                    piece,
                    &mut out_i,
                    &mut out_q,
                );
            }
        }
        (out_i, out_q)
    }

    /// An order-2 front end with `data_bits`/`coeff_bits` buses, a
    /// `2^addr_bits` table and decimation `r`.
    fn shape(data_bits: u32, coeff_bits: u32, addr_bits: u32, r: u32) -> FusedFrontEnd {
        let cic = CicDecimator::new(2, r, data_bits, data_bits);
        FusedFrontEnd::from_parts(
            LutNco::new(tuning_word(0.1234, 1.0), addr_bits, coeff_bits),
            FixedMixer::new(data_bits, coeff_bits),
            cic.clone(),
            cic,
        )
    }

    /// Runs every body at chunkings 1, 7, `8r−1`, `8r+7`, 173 and the
    /// whole block, retuning mid-stream, against the staged reference.
    fn assert_bodies_match(fe: &FusedFrontEnd, input: &[i32], what: &str) {
        let r = fe.cic_i.decimation() as usize;
        let retune = Some((input.len() / 2 + 3, tuning_word(-0.2871, 1.0)));
        let (expect_i, expect_q) = staged_reference(fe, input, retune);
        let bodies = fused_bodies(fe);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert_eq!(bodies.len(), 2, "{what}: the AVX2 body must be under test");
        }
        for (name, body) in bodies {
            for chunk in [1, 7, 8 * r - 1, 8 * r + 7, 173, input.len()] {
                let (got_i, got_q) = run_body(fe, body, input, chunk, retune);
                assert_eq!(
                    got_i, expect_i,
                    "{what}, {name} body, chunk {chunk}, I rail"
                );
                assert_eq!(
                    got_q, expect_q,
                    "{what}, {name} body, chunk {chunk}, Q rail"
                );
            }
        }
    }

    #[test]
    fn fused_bodies_match_staged_for_every_tile_shape() {
        // The DRM bus widths at decimations around and across the
        // 8-lane vector width, the Montium widths at the preset's 16,
        // and one register wider than 32 bits (20-bit bus, r = 72:
        // w = 33), which runs one group at a time.
        let mut shapes: Vec<FusedFrontEnd> = [2, 3, 5, 8, 13, 16, 21, 64]
            .into_iter()
            .map(|r| shape(12, 12, 10, r))
            .collect();
        shapes.push(shape(16, 16, 9, 16));
        let wide = shape(20, 12, 10, 72);
        assert!(wide.cic_i.register_bits() > 32);
        shapes.push(wide);
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        for fe in &shapes {
            let r = fe.cic_i.decimation() as usize;
            let top = max_signed(fe.mixer.data_bits()) as i32;
            let bot = min_signed(fe.mixer.data_bits()) as i32;
            // Five tiles from a boundary, plus a partial group.
            let n = 40 * r + 13;
            let random: Vec<i32> = (0..n).map(|_| rng.gen_range(bot..=top)).collect();
            let full_scale: Vec<i32> = (0..n).map(|k| if k % 2 == 0 { bot } else { top }).collect();
            let what = format!("db {} r {r}", fe.mixer.data_bits());
            assert_bodies_match(fe, &random, &format!("{what}, random"));
            assert_bodies_match(fe, &full_scale, &format!("{what}, full scale"));
        }
    }

    #[test]
    fn fused_bodies_match_staged_for_out_of_range_words() {
        // ADC words are not bounded upstream: words outside the
        // data_bits range must give the per-sample answer on every body.
        // Blocks mix them into in-range words long enough for tiles.
        for fe in [
            FusedFrontEnd::new(&DdcConfig::drm(10.7e6)),
            shape(12, 12, 10, 5),
        ] {
            let r = fe.cic_i.decimation() as usize;
            let top = max_signed(fe.mixer.data_bits()) as i32;
            let bot = min_signed(fe.mixer.data_bits()) as i32;
            let hostile = [i32::MIN, i32::MAX, 1 << 22, -(1 << 22), top + 1, bot - 1];
            let mut rng = rand::rngs::StdRng::seed_from_u64(22);
            let mut input: Vec<i32> = (0..64 * r).map(|_| rng.gen_range(bot..=top)).collect();
            for (k, &x) in hostile.iter().enumerate() {
                input[(k * 7 + 3) * r + k] = x;
            }
            assert_bodies_match(&fe, &input, &format!("r {r}, out of range"));
        }
    }

    #[test]
    fn fused_matches_staged_over_ragged_chunks() {
        let cfg = DdcConfig::drm(10.7e6);
        let fe = FusedFrontEnd::new(&cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let input: Vec<i32> = (0..5000).map(|_| rng.gen_range(-2048..=2047)).collect();
        let (expect_i, expect_q) = staged_reference(&fe, &input, None);
        for (name, body) in fused_bodies(&fe) {
            let (got_i, got_q) = run_body(&fe, body, &input, 173, None);
            assert_eq!(got_i, expect_i, "{name} body, I rail");
            assert_eq!(got_q, expect_q, "{name} body, Q rail");
        }
        // The dispatching entry point agrees too.
        let mut fe = FusedFrontEnd::new(&cfg);
        let mut got_i = Vec::new();
        let mut got_q = Vec::new();
        for chunk in input.chunks(173) {
            fe.process_block(chunk, &mut got_i, &mut got_q);
        }
        assert_eq!(got_i, expect_i);
        assert_eq!(got_q, expect_q);
    }

    #[test]
    fn fused_handles_full_scale_saturating_input() {
        // Full-scale worst-case input exercises the mixer's clamp and
        // many integrator wraps.
        let fe = FusedFrontEnd::new(&DdcConfig::drm(16_128_000.0));
        let input: Vec<i32> = (0..2048)
            .map(|k| if k % 2 == 0 { -2048 } else { 2047 })
            .collect();
        let (expect_i, expect_q) = staged_reference(&fe, &input, None);
        for (name, body) in fused_bodies(&fe) {
            let (got_i, got_q) = run_body(&fe, body, &input, input.len(), None);
            assert_eq!(got_i, expect_i, "{name} body, I rail");
            assert_eq!(got_q, expect_q, "{name} body, Q rail");
        }
    }

    #[test]
    fn fallback_path_matches_staged_for_other_orders() {
        // Order-3 CIC1 takes the per-sample fallback; it must still be
        // bit-exact with the staged components.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let input: Vec<i32> = (0..1000).map(|_| rng.gen_range(-2048..=2047)).collect();
        let word = tuning_word(0.173, 1.0);
        let nco = LutNco::new(word, 10, 12);
        let mixer = FixedMixer::new(12, 12);
        let cic = CicDecimator::new(3, 5, 12, 12);
        let mut fe = FusedFrontEnd::from_parts(nco, mixer, cic.clone(), cic);
        let (expect_i, expect_q) = staged_reference(&fe, &input, None);
        let mut got_i = Vec::new();
        let mut got_q = Vec::new();
        for chunk in input.chunks(61) {
            fe.process_block(chunk, &mut got_i, &mut got_q);
        }
        assert_eq!(got_i, expect_i);
        assert_eq!(got_q, expect_q);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let cfg = DdcConfig::drm(1e6);
        let mut fe = FusedFrontEnd::new(&cfg);
        let mut out_i = Vec::new();
        let mut out_q = Vec::new();
        fe.process_block(&[], &mut out_i, &mut out_q);
        assert!(out_i.is_empty() && out_q.is_empty());
    }
}
