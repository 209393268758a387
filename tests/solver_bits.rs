//! Bit-exact regression pins for the transistor-level solver.
//!
//! The Fig. 3 experiment ranks cell mixes by differences in non-linearity
//! far below a percent, so the simulated periods are pinned to the last
//! bit: any reordering of the floating-point sums in assembly or LU
//! shows up here as a changed bit pattern.
//!
//! The pins are those of the fill-reducing, pivot-reusing solver on the
//! reduced circuit (parallel duplicate MOSFETs and capacitors merged).
//! The periods of the dense-LU solver with device-by-device stamping are
//! kept as the reference, and every pinned period must stay within 1e-9
//! relative of it, far below the ~1e-3 relative non-linearity
//! differences being ranked.

use stdcell::library::CellLibrary;
use tsense_core::gate::GateKind;
use tsense_core::ring::CellConfig;

/// `count` stages of one gate kind.
type Group = (usize, GateKind);

/// The Fig. 3 library sizing (`Wp/Wn`).
const LIBRARY_RATIO: f64 = 1.5;

/// Largest relative distance allowed from a dense-LU reference period.
const REFERENCE_TOLERANCE: f64 = 1e-9;

fn period(groups: &[Group], temp_c: f64) -> f64 {
    let config = CellConfig::from_groups(groups).expect("valid ring");
    CellLibrary::um350(LIBRARY_RATIO)
        .ring_from_config(&config)
        .expect("valid ring")
        .measure_period(temp_c)
        .expect("ring oscillates")
}

/// Asserts that `groups` at `temp_c` reproduces the pinned bits, and that
/// the period is within [`REFERENCE_TOLERANCE`] of the dense-LU
/// `reference` bits.
fn assert_pinned(groups: &[Group], temp_c: f64, pinned: u64, reference: u64) {
    let p = period(groups, temp_c);
    assert_near_reference(p, reference, groups, temp_c);
    assert_eq!(p.to_bits(), pinned, "{groups:?} at {temp_c} °C: {p:e}");
}

fn assert_near_reference(p: f64, reference: u64, groups: &[Group], temp_c: f64) {
    let r = f64::from_bits(reference);
    let drift = ((p - r) / r).abs();
    assert!(
        drift <= REFERENCE_TOLERANCE,
        "{groups:?} at {temp_c} °C: {p:e} is {drift:e} from the dense-LU {r:e}"
    );
}

#[test]
fn inverter_ring_period_bits_at_the_temperature_extremes() {
    let inv = [(5, GateKind::Inv)];
    // 2.0856339572966574e-10 s (dense LU: the same bits)
    assert_pinned(&inv, -50.0, 0x3dec_aa2c_1005_680d, 0x3dec_aa2c_1005_680d);
    // 4.2831708764907173e-10 s (dense LU: 4.283170876490719e-10 s)
    assert_pinned(&inv, 150.0, 0x3dfd_6f08_ad24_2510, 0x3dfd_6f08_ad24_2513);
}

#[test]
fn nand3_nor2_mix_period_bits_at_room_temperature() {
    // 8.704671171222334e-10 s (dense LU: 8.704671171222511e-10 s)
    let mix = [(3, GateKind::Nand3), (2, GateKind::Nor2)];
    assert_pinned(&mix, 27.0, 0x3e0d_e8b5_b131_119b, 0x3e0d_e8b5_b131_1247);
}

#[test]
fn fig3_periods_stay_within_tolerance_of_the_dense_lu() {
    // Periods of the dense partial-pivot LU with device-order stamping,
    // recorded before the pivot-reusing solver replaced it: three Fig. 3
    // mixes (the paper's baseline, the exhaustive winner and a
    // complex-gate mix whose hot points need a second horizon) at the
    // ends and middle of the sweep.
    let inv = [(5, GateKind::Inv)];
    let winner = [
        (2, GateKind::Inv),
        (1, GateKind::Nand3),
        (2, GateKind::Nor2),
    ];
    let complex = [(3, GateKind::Nand3), (2, GateKind::Nor3)];
    let reference: [(&[Group], [u64; 3]); 3] = [
        (
            &inv,
            [
                0x3dec_aa2c_1005_680d,
                0x3df5_e9e7_4766_1809,
                0x3dfd_6f08_ad24_2513,
            ],
        ),
        (
            &winner,
            [
                0x3dfa_bff6_6ad1_8257,
                0x3e04_9fd3_43b9_6994,
                0x3e0b_f455_4b48_9879,
            ],
        ),
        (
            &complex,
            [
                0x3e0b_5bdf_2996_1e54,
                0x3e15_5d9f_e5dc_a350,
                0x3e1d_59b1_ed7d_65fb,
            ],
        ),
    ];
    for (groups, bits) in reference {
        for (temp_c, r) in [-50.0, 50.0, 150.0].into_iter().zip(bits) {
            assert_near_reference(period(groups, temp_c), r, groups, temp_c);
        }
    }
}
