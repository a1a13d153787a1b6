#include "core/analytic.hpp"

#include "core/scanspace.hpp"

namespace ae::core {

EngineRunStats analytic_run_stats(const EngineConfig& config,
                                  const alib::Call& call, Size frame,
                                  i64 processed_pixels, i64 criterion_tests,
                                  AnalyticTiming* timing) {
  const ScanSpace space(frame, call.scan);
  const i64 pixels = frame.area();
  const int images = call.mode == alib::Mode::Inter ? 2 : 1;

  EngineRunStats run;
  AnalyticTiming t;
  if (call.mode == alib::Mode::Segment) {
    AE_EXPECTS(processed_pixels >= 0,
               "segment analytic stats need the traversal size");
    t = analytic_segment_timing(config, call, frame, processed_pixels,
                                criterion_tests);
    const auto visits = static_cast<u64>(processed_pixels);
    const auto tests = static_cast<u64>(criterion_tests);
    run.pixels = processed_pixels;
    run.zbt_read_transactions = visits * call.nbhd.size() + tests;
    run.zbt_write_transactions = visits;
    run.zbt_word_accesses = static_cast<u64>(pixels) * 2 +
                            (visits * call.nbhd.size() + tests) * 2 +
                            visits * 2;
    run.plc.pixel_cycles = visits;
    run.plc.load_instr = visits;
    run.plc.op_instr = visits;
    run.plc.scan_instr = visits;
    run.plc.store_instr = visits;
    run.words_in = static_cast<u64>(pixels) * 2;
  } else {
    t = analytic_streamed_timing(config, call, frame);
    run.pixels = pixels;
    run.zbt_read_transactions = static_cast<u64>(pixels);
    run.zbt_write_transactions = static_cast<u64>(pixels);
    run.zbt_word_accesses =
        static_cast<u64>(pixels) * 2 * static_cast<u64>(images)  // DMA in
        + static_cast<u64>(pixels) * 2 * static_cast<u64>(images)  // TxU reads
        + static_cast<u64>(pixels) * 2                           // TxU writes
        + static_cast<u64>(pixels) * 2;                          // DMA out
    run.plc.pixel_cycles = static_cast<u64>(pixels);
    run.plc.scan_instr = static_cast<u64>(pixels);
    run.plc.load_instr = static_cast<u64>(space.line_count());
    run.plc.shift_instr =
        static_cast<u64>(pixels) - static_cast<u64>(space.line_count());
    run.plc.op_instr = static_cast<u64>(pixels);
    run.plc.store_instr = static_cast<u64>(pixels);
    run.plc.startup_cycles = static_cast<u64>(config.pipeline_stages - 1);
    run.words_in = static_cast<u64>(pixels) * 2 * static_cast<u64>(images);
    run.iim_parallel_reads = static_cast<u64>(pixels);
  }
  run.cycles = t.total_cycles + config.call_setup_overhead_cycles;
  run.bus_busy_cycles = t.input_busy_cycles + t.output_busy_cycles;
  run.bus_overhead_cycles = t.input_overhead_cycles +
                            t.output_overhead_cycles +
                            config.call_setup_overhead_cycles;
  run.words_out = static_cast<u64>(pixels) * 2;
  const i64 strips =
      (space.line_count() + config.strip_lines - 1) / config.strip_lines;
  const i64 strip_pixels =
      static_cast<i64>(config.strip_lines) * space.line_length();
  run.interrupts = static_cast<u64>(strips * images + 1) +
                   static_cast<u64>((pixels + strip_pixels - 1) / strip_pixels);
  if (timing != nullptr) *timing = t;
  return run;
}

AnalyticPrice analytic_call_stats(const EngineConfig& config,
                                  const alib::Call& call, Size frame,
                                  const alib::SegmentRunInfo& seg,
                                  alib::CallStats& stats) {
  AnalyticTiming t;
  AnalyticPrice price;
  price.run = analytic_run_stats(config, call, frame, seg.processed_pixels,
                                 seg.criterion_tests, &t);
  price.input_cycles = t.input_busy_cycles + t.input_overhead_cycles;
  price.output_cycles = t.output_busy_cycles + t.output_overhead_cycles;
  const EngineRunStats& run = price.run;
  stats.pixels = run.pixels;
  stats.loads = run.zbt_read_transactions;
  stats.stores = run.zbt_write_transactions;
  stats.cycles = run.cycles;
  stats.pci_cycles = run.bus_busy_cycles + run.bus_overhead_cycles;
  stats.stall_cycles = run.pu_stall_iim + run.pu_stall_oim;
  stats.zbt_word_accesses = run.zbt_word_accesses;
  stats.model_seconds =
      static_cast<double>(run.cycles) * config.seconds_per_cycle();
  return price;
}

}  // namespace ae::core
