#pragma once

#include <cstdint>
#include <string>

namespace mhla::mem {

using i64 = std::int64_t;

/// What kind of memory a layer is built from; drives the energy model and
/// whether a DMA engine can target it.
enum class MemTech { Sram, Sdram };

/// One layer of the memory hierarchy.
///
/// Layers are ordered by distance from the processor: index 0 is the
/// closest (smallest, cheapest per access), the last layer is off-chip
/// background memory (unbounded for assignment purposes).
struct MemLayer {
  std::string name;
  MemTech tech = MemTech::Sram;
  i64 capacity_bytes = 0;   ///< 0 means unbounded (off-chip background memory)
  double read_energy_nj = 0.0;
  double write_energy_nj = 0.0;
  int read_latency = 1;     ///< processor stall cycles per read
  int write_latency = 1;    ///< processor stall cycles per write
  double bytes_per_cycle = 4.0;  ///< sustained port bandwidth (block transfers)
  bool on_chip = true;

  bool unbounded() const { return capacity_bytes <= 0; }

  /// Whether `bytes` fit in this layer — the one capacity test of the
  /// assignment searches.
  bool fits(i64 bytes) const { return unbounded() || bytes <= capacity_bytes; }

  double access_energy_nj(bool is_write) const {
    return is_write ? write_energy_nj : read_energy_nj;
  }

  int access_latency(bool is_write) const { return is_write ? write_latency : read_latency; }
};

}  // namespace mhla::mem
