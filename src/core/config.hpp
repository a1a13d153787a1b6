// AddressEngine configuration (paper section 3).
//
// Defaults model the prototype exactly: ADM-XRC-II board, Virtex-II 3000,
// 6 independent ZBT SRAM banks with one 32-bit write-read port each, 32-bit
// 66 MHz PCI, 16-line strips, 16-line IIM/OIM, 4-stage process unit.
// Every parameter is a knob so the ablation benches can move the
// bottlenecks around (e.g. the outlook's "replace PCI by an on-chip bus").
#pragma once

#include <string>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/types.hpp"

namespace ae::core {

struct EngineConfig {
  // ---- clocks -------------------------------------------------------------
  /// System clock the coprocessor runs at.  The prototype clocks the design
  /// from the PCI clock: 66 MHz (the synthesized fmax is 102 MHz, so PCI is
  /// the limiting factor — paper section 4.1).
  double clock_mhz = 66.0;

  // ---- host bus (PCI in the prototype) -------------------------------------
  /// Bus width in bits (PCI: 32).
  int bus_width_bits = 32;
  /// Sustained DMA efficiency: fraction of bus cycles that move a word
  /// (burst setup, arbitration and retries eat the rest).
  double bus_efficiency = 0.85;
  /// Bus-idle cycles consumed per DMA strip interrupt/handshake.
  u32 interrupt_overhead_cycles = 1320;
  /// Host-side cycles per AddressEngine call: driver entry, coprocessor
  /// configuration write, DMA descriptor setup and the completion
  /// interrupt ("the communication between PC and the board is interrupt
  /// oriented").  198k cycles = 3 ms at 66 MHz, typical for a 2005 PCI
  /// driver round trip.
  u32 call_setup_overhead_cycles = 198'000;

  // ---- ZBT on-board memory -------------------------------------------------
  /// Independent banks, one 32-bit write-read port each (prototype: 6).
  int zbt_banks = 6;
  /// Bytes per bank (prototype: 6 MB total).
  i64 zbt_bank_bytes = 1 << 20;

  // ---- strips / intermediate memories ---------------------------------------
  /// Lines per transfer strip (prototype: 16; power of two, and at least the
  /// 9-line worst-case neighborhood span plus slack).
  i32 strip_lines = 16;
  /// IIM capacity in lines (prototype: 16; halved into 2 x 8 FIFOs for
  /// inter mode).
  i32 iim_lines = 16;
  /// OIM capacity in lines (prototype: same structure as the IIM).
  i32 oim_lines = 16;

  // ---- process unit ----------------------------------------------------------
  /// Datapath pipeline depth (prototype: 4 — scan, load/shift, op, store).
  int pipeline_stages = 4;

  // ---- behavioural switches ---------------------------------------------------
  /// When true, inter calls behave like the paper's "special inter
  /// operations": processing may not start until both input frames are
  /// completely resident, which exposes the non-overlapped processing time
  /// (the 12.5% figure of section 4.1).
  bool strict_inter_sequencing = false;

  /// Largest frame width the IIM line buffers are sized for.
  i32 max_line_pixels = 352;

  /// Per-bank peak bandwidth in MB/s at the configured clock (the paper
  /// quotes 264 MB/s per bank at 66 MHz x 32 bit).
  double zbt_bank_mbytes_per_s() const {
    return clock_mhz * 1e6 * 4.0 / 1e6;
  }

  /// Bus peak bandwidth in MB/s.
  double bus_mbytes_per_s() const {
    return clock_mhz * 1e6 * (bus_width_bits / 8.0) / 1e6;
  }

  double seconds_per_cycle() const { return 1.0 / (clock_mhz * 1e6); }
};

/// Throws InvalidArgument on inconsistent configurations (e.g. a strip
/// shorter than the worst-case neighborhood, a non-power-of-two strip, too
/// few banks for the bank-pair layout).
void validate_config(const EngineConfig& config);

/// How `frame` fits the configuration, one flag per independent limit.
/// Header-inline so the analysis layer (which ae_core links) can use it.
struct FrameFit {
  bool non_empty = false;
  bool fits_lines = false;  ///< within the IIM/OIM line-buffer sizing
  bool fits_bank = false;   ///< one image's words fit a ZBT bank pair
  bool ok() const { return non_empty && fits_lines && fits_bank; }
};

inline FrameFit frame_fit(const EngineConfig& config, Size frame) {
  FrameFit fit;
  fit.non_empty = frame.width > 0 && frame.height > 0;
  fit.fits_lines = frame.width <= config.max_line_pixels &&
                   frame.height <= config.max_line_pixels;
  // Two input images + one result, 8 bytes per pixel, split over 3 bank
  // pairs: each bank pair holds one image's words, one 32-bit word per
  // pixel per bank.
  fit.fits_bank = frame.area() * 4 <= config.zbt_bank_bytes;
  return fit;
}

/// Throws unless `frame` fits the configuration (frame_fit().ok()).
void validate_frame(const EngineConfig& config, Size frame);

}  // namespace ae::core
