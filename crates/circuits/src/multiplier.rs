//! Array multiplier — the ComplexALU's datapath.
//!
//! A classic ripple-carry array: W partial-product rows, each folded into a
//! running sum by a W-bit ripple adder. The sensitized delay tracks the
//! magnitude and bit patterns of the operands (multiplying by small or
//! sparse values finishes early), which is the data dependence behind the
//! ComplexALU error-probability curves.

use gatelib::{CellKind, NetId, NetlistBuilder, NetlistError};

use crate::adder::ripple_carry_adder;

/// Unsigned `W×W → 2W` array multiplier; returns the product bits, LSB first.
///
/// # Errors
///
/// Propagates [`NetlistError`]; operand width mismatch is rejected.
pub fn array_multiplier(
    b: &mut NetlistBuilder,
    a: &[NetId],
    x: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    if a.len() != x.len() || a.is_empty() {
        return Err(NetlistError::InputWidthMismatch {
            expected: a.len(),
            got: x.len(),
        });
    }
    let w = a.len();
    // Partial products: pp[i][j] = a[j] & x[i] (row i weights 2^i).
    let mut pp = Vec::with_capacity(w);
    for &xi in x {
        let row: Vec<NetId> = a
            .iter()
            .map(|&aj| b.cell(CellKind::And2, &[aj, xi]))
            .collect::<Result<_, _>>()?;
        pp.push(row);
    }
    let zero = b.const0()?;
    let mut product = Vec::with_capacity(2 * w);
    // Running sum starts as row 0.
    let mut row_sum: Vec<NetId> = pp[0].clone();
    let mut row_carry = zero;
    product.push(row_sum[0]);
    for row in pp.iter().skip(1) {
        // Addend: running sum shifted right by one, carry as MSB.
        let mut shifted: Vec<NetId> = row_sum[1..].to_vec();
        shifted.push(row_carry);
        let (sum, cout) = ripple_carry_adder(b, &shifted, row, zero)?;
        row_sum = sum;
        row_carry = cout;
        product.push(row_sum[0]);
    }
    // Upper half: remaining sum bits and the final carry.
    product.extend_from_slice(&row_sum[1..]);
    product.push(row_carry);
    debug_assert_eq!(product.len(), 2 * w);
    Ok(product)
}

/// Carry-save (Wallace-style) multiplier: partial products are reduced in
/// log-depth 3:2 compressor layers, then a final Kogge-Stone carry-
/// propagate add. Much shallower than the ripple array — the multiplier
/// counterpart of the adder-topology ablation.
///
/// # Errors
///
/// Propagates [`NetlistError`]; operand width mismatch is rejected.
pub fn wallace_multiplier(
    b: &mut NetlistBuilder,
    a: &[NetId],
    x: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    if a.len() != x.len() || a.is_empty() {
        return Err(NetlistError::InputWidthMismatch {
            expected: a.len(),
            got: x.len(),
        });
    }
    let w = a.len();
    let out_w = 2 * w;
    // Column-wise dot diagram: columns[c] = list of bits of weight 2^c.
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); out_w];
    for (i, &xi) in x.iter().enumerate() {
        for (j, &aj) in a.iter().enumerate() {
            let pp = b.cell(CellKind::And2, &[aj, xi])?;
            columns[i + j].push(pp);
        }
    }
    // 3:2 / 2:2 compression until every column holds at most two bits.
    loop {
        let tallest = columns.iter().map(Vec::len).max().unwrap_or(0);
        if tallest <= 2 {
            break;
        }
        let mut next: Vec<Vec<NetId>> = vec![Vec::new(); out_w];
        for c in 0..out_w {
            let col = &columns[c];
            let mut i = 0;
            while col.len() - i >= 3 {
                let (s, cy) = crate::prims::full_adder(b, col[i], col[i + 1], col[i + 2])?;
                next[c].push(s);
                if c + 1 < out_w {
                    next[c + 1].push(cy);
                }
                i += 3;
            }
            if col.len() - i == 2 {
                let s = b.cell(CellKind::Xor2, &[col[i], col[i + 1]])?;
                let cy = b.cell(CellKind::And2, &[col[i], col[i + 1]])?;
                next[c].push(s);
                if c + 1 < out_w {
                    next[c + 1].push(cy);
                }
            } else if col.len() - i == 1 {
                next[c].push(col[i]);
            }
        }
        columns = next;
    }
    // Final carry-propagate add of the two remaining rows.
    let zero = b.const0()?;
    let row_a: Vec<NetId> = columns
        .iter()
        .map(|col| col.first().copied().unwrap_or(zero))
        .collect();
    let row_b: Vec<NetId> = columns
        .iter()
        .map(|col| col.get(1).copied().unwrap_or(zero))
        .collect();
    let (sum, _cout) = crate::adder::kogge_stone_adder(b, &row_a, &row_b, zero)?;
    Ok(sum)
}

/// Dadda multiplier: the lazy column-compression schedule. Where Wallace
/// compresses every column as hard as possible per layer, Dadda reduces
/// only down to the next entry of the 3/2-growth height sequence
/// (2, 3, 4, 6, 9, 13, …), spending strictly fewer adder cells at the same
/// logical depth — a different area/delay-distribution point for the
/// multiplier ablation.
///
/// # Errors
///
/// Propagates [`NetlistError`]; operand width mismatch is rejected.
pub fn dadda_multiplier(
    b: &mut NetlistBuilder,
    a: &[NetId],
    x: &[NetId],
) -> Result<Vec<NetId>, NetlistError> {
    if a.len() != x.len() || a.is_empty() {
        return Err(NetlistError::InputWidthMismatch {
            expected: a.len(),
            got: x.len(),
        });
    }
    let w = a.len();
    let out_w = 2 * w;
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); out_w];
    for (i, &xi) in x.iter().enumerate() {
        for (j, &aj) in a.iter().enumerate() {
            let pp = b.cell(CellKind::And2, &[aj, xi])?;
            columns[i + j].push(pp);
        }
    }
    // Dadda height targets: d_1 = 2, d_{k+1} = floor(3/2 · d_k), applied
    // descending from the largest entry below the tallest column.
    let tallest = columns.iter().map(Vec::len).max().unwrap_or(0);
    let mut heights = vec![2usize];
    while *heights.last().expect("non-empty") < tallest {
        let last = *heights.last().expect("non-empty");
        heights.push(last * 3 / 2);
    }
    for &target in heights.iter().rev() {
        if target >= tallest {
            continue;
        }
        for c in 0..out_w {
            while columns[c].len() > target {
                let excess = columns[c].len() - target;
                // Consume from the FRONT: those bits settled in an earlier
                // stage. Carries produced in this pass sit at the back and
                // pass through to the next stage, so stages do not ripple
                // into each other.
                if excess >= 2 {
                    // Full adder: −3 here, +1 sum here, +1 carry next.
                    let v = columns[c].remove(0);
                    let y = columns[c].remove(0);
                    let z = columns[c].remove(0);
                    let (s, cy) = crate::prims::full_adder(b, v, y, z)?;
                    columns[c].push(s);
                    if c + 1 < out_w {
                        columns[c + 1].push(cy);
                    }
                } else {
                    // Half adder: −2 here, +1 sum here, +1 carry next.
                    let v = columns[c].remove(0);
                    let y = columns[c].remove(0);
                    let s = b.cell(CellKind::Xor2, &[v, y])?;
                    let cy = b.cell(CellKind::And2, &[v, y])?;
                    columns[c].push(s);
                    if c + 1 < out_w {
                        columns[c + 1].push(cy);
                    }
                }
            }
        }
    }
    let zero = b.const0()?;
    let row_a: Vec<NetId> = columns
        .iter()
        .map(|col| col.first().copied().unwrap_or(zero))
        .collect();
    let row_b: Vec<NetId> = columns
        .iter()
        .map(|col| col.get(1).copied().unwrap_or(zero))
        .collect();
    let (sum, _cout) = crate::adder::kogge_stone_adder(b, &row_a, &row_b, zero)?;
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatelib::Netlist;

    fn build(w: usize) -> Netlist {
        let mut b = NetlistBuilder::new("mult");
        let a = b.input_bus("a", w);
        let x = b.input_bus("b", w);
        let p = array_multiplier(&mut b, &a, &x).expect("ok");
        b.output_bus(&p, "p");
        b.finish().expect("valid")
    }

    fn encode(w: usize, a: u64, x: u64) -> Vec<bool> {
        let mut v = Vec::new();
        for i in 0..w {
            v.push((a >> i) & 1 == 1);
        }
        for i in 0..w {
            v.push((x >> i) & 1 == 1);
        }
        v
    }

    fn decode(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b)) << i)
    }

    #[test]
    fn exhaustive_4x4() {
        let n = build(4);
        for a in 0..16u64 {
            for x in 0..16u64 {
                let out = n.evaluate(&encode(4, a, x)).expect("ok");
                assert_eq!(decode(&out), a * x, "{a} * {x}");
            }
        }
    }

    #[test]
    fn random_8x8() {
        let n = build(8);
        let mut state = 0xdead_beefu64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state & 0xFF;
            let x = (state >> 8) & 0xFF;
            let out = n.evaluate(&encode(8, a, x)).expect("ok");
            assert_eq!(decode(&out), a * x, "{a} * {x}");
        }
    }

    #[test]
    fn zero_operand_is_fast() {
        use gatelib::{TimingSim, Voltage};
        let n = build(8);
        let mut sim = TimingSim::new(&n, Voltage::NOMINAL).expect("sim");
        sim.step(&encode(8, 0xAB, 0xCD)).expect("init");
        // Transition to multiply-by-zero: output collapses quickly compared
        // with a full-magnitude multiply from the same starting state.
        let to_zero = sim.step(&encode(8, 0xAB, 0)).expect("ok");
        sim.step(&encode(8, 0xAB, 0xCD)).expect("restore");
        let to_big = sim.step(&encode(8, 0xFF, 0xFF)).expect("ok");
        assert!(to_big > to_zero, "big {to_big} vs zero {to_zero}");
    }

    #[test]
    fn multiplier_has_long_critical_path() {
        use gatelib::{StaticTiming, Voltage};
        let sta_mul = StaticTiming::analyze(&build(8), Voltage::NOMINAL).expect("sta");
        // The 8x8 array should be much deeper than a single 8-bit adder.
        let mut b = NetlistBuilder::new("adder");
        let a = b.input_bus("a", 8);
        let x = b.input_bus("b", 8);
        let cin = b.const0().expect("ok");
        let (s, c) = ripple_carry_adder(&mut b, &a, &x, cin).expect("ok");
        b.output_bus(&s, "s");
        b.output(c, "c");
        let sta_add =
            StaticTiming::analyze(&b.finish().expect("valid"), Voltage::NOMINAL).expect("sta");
        assert!(sta_mul.nominal_period() > 2.0 * sta_add.nominal_period());
    }

    #[test]
    fn wallace_exhaustive_4x4() {
        let mut b = NetlistBuilder::new("wallace");
        let a = b.input_bus("a", 4);
        let x = b.input_bus("b", 4);
        let p = wallace_multiplier(&mut b, &a, &x).expect("ok");
        b.output_bus(&p, "p");
        let n = b.finish().expect("valid");
        for a in 0..16u64 {
            for x in 0..16u64 {
                let out = n.evaluate(&encode(4, a, x)).expect("ok");
                assert_eq!(decode(&out), a * x, "{a} * {x}");
            }
        }
    }

    fn build_dadda(w: usize) -> Netlist {
        let mut b = NetlistBuilder::new("dadda");
        let a = b.input_bus("a", w);
        let x = b.input_bus("b", w);
        let p = dadda_multiplier(&mut b, &a, &x).expect("ok");
        b.output_bus(&p, "p");
        b.finish().expect("valid")
    }

    #[test]
    fn dadda_exhaustive_4x4() {
        let n = build_dadda(4);
        for a in 0..16u64 {
            for x in 0..16u64 {
                let out = n.evaluate(&encode(4, a, x)).expect("ok");
                assert_eq!(decode(&out), a * x, "{a} * {x}");
            }
        }
    }

    #[test]
    fn dadda_random_8x8() {
        let n = build_dadda(8);
        let mut state = 0x0bad_cafeu64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state & 0xFF;
            let x = (state >> 8) & 0xFF;
            let out = n.evaluate(&encode(8, a, x)).expect("ok");
            assert_eq!(decode(&out), a * x, "{a} * {x}");
        }
    }

    #[test]
    fn dadda_spends_fewer_cells_than_wallace() {
        let w = 8;
        let mut b = NetlistBuilder::new("wallace");
        let a = b.input_bus("a", w);
        let x = b.input_bus("b", w);
        let p = wallace_multiplier(&mut b, &a, &x).expect("ok");
        b.output_bus(&p, "p");
        let wallace_cells = b.finish().expect("valid").cell_count();
        let dadda_cells = build_dadda(w).cell_count();
        assert!(
            dadda_cells <= wallace_cells,
            "Dadda {dadda_cells} should not exceed Wallace {wallace_cells}"
        );
    }

    #[test]
    fn dadda_is_shallower_than_array() {
        use gatelib::{StaticTiming, Voltage};
        let array = StaticTiming::analyze(&build(8), Voltage::NOMINAL)
            .expect("sta")
            .nominal_period();
        let dadda = StaticTiming::analyze(&build_dadda(8), Voltage::NOMINAL)
            .expect("sta")
            .nominal_period();
        assert!(dadda < array, "Dadda {dadda} vs array {array}");
    }

    #[test]
    fn wallace_is_shallower_than_array() {
        use gatelib::{StaticTiming, Voltage};
        let array = StaticTiming::analyze(&build(8), Voltage::NOMINAL)
            .expect("sta")
            .nominal_period();
        let mut b = NetlistBuilder::new("wallace8");
        let a = b.input_bus("a", 8);
        let x = b.input_bus("b", 8);
        let p = wallace_multiplier(&mut b, &a, &x).expect("ok");
        b.output_bus(&p, "p");
        let wallace = StaticTiming::analyze(&b.finish().expect("valid"), Voltage::NOMINAL)
            .expect("sta")
            .nominal_period();
        assert!(
            wallace < 0.75 * array,
            "wallace {wallace} should be much shallower than array {array}"
        );
    }

    #[test]
    fn wallace_random_8x8() {
        let mut b = NetlistBuilder::new("wallace8");
        let a = b.input_bus("a", 8);
        let x = b.input_bus("b", 8);
        let p = wallace_multiplier(&mut b, &a, &x).expect("ok");
        b.output_bus(&p, "p");
        let n = b.finish().expect("valid");
        let mut state = 0xfeed_f00du64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state & 0xFF;
            let x = (state >> 8) & 0xFF;
            let out = n.evaluate(&encode(8, a, x)).expect("ok");
            assert_eq!(decode(&out), a * x, "{a} * {x}");
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input_bus("a", 4);
        let x = b.input_bus("b", 5);
        assert!(array_multiplier(&mut b, &a, &x).is_err());
    }
}
