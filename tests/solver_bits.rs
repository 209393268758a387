//! Bit-exact regression pins for the transistor-level solver.
//!
//! The Fig. 3 experiment ranks cell mixes by differences in non-linearity
//! far below a percent, so a solver change that is meant to be speed-only
//! must leave every simulated period unchanged to the last bit. These
//! periods were recorded before the stamp program and the reused Newton
//! workspace were introduced; any reordering of the floating-point sums in
//! assembly or LU shows up here as a changed bit pattern.

use stdcell::library::CellLibrary;
use tsense_core::gate::GateKind;
use tsense_core::ring::CellConfig;

/// The Fig. 3 library sizing (`Wp/Wn`).
const LIBRARY_RATIO: f64 = 1.5;

fn period_bits(groups: &[(usize, GateKind)], temp_c: f64) -> u64 {
    let config = CellConfig::from_groups(groups).expect("valid ring");
    let ring = CellLibrary::um350(LIBRARY_RATIO)
        .ring_from_config(&config)
        .expect("valid ring");
    ring.measure_period(temp_c)
        .expect("ring oscillates")
        .to_bits()
}

#[test]
fn inverter_ring_period_bits_at_the_temperature_extremes() {
    let inv = [(5, GateKind::Inv)];
    // 2.0856339572966574e-10 s
    assert_eq!(period_bits(&inv, -50.0), 0x3dec_aa2c_1005_680d);
    // 4.283170876490719e-10 s
    assert_eq!(period_bits(&inv, 150.0), 0x3dfd_6f08_ad24_2513);
}

#[test]
fn nand3_nor2_mix_period_bits_at_room_temperature() {
    // 8.704671171222511e-10 s
    let mix = [(3, GateKind::Nand3), (2, GateKind::Nor2)];
    assert_eq!(period_bits(&mix, 27.0), 0x3e0d_e8b5_b131_1247);
}
