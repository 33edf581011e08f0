#pragma once

#include "te/extension.h"

namespace mhla::te {

/// How block transfers are charged to the processor.
enum class TransferMode {
  Blocking,      ///< MHLA step 1: the CPU waits out every transfer
  TimeExtended,  ///< step 2: TE-hidden cycles are overlapped with compute
  Ideal,         ///< paper's reference bar: every transfer costs 0 wait cycles
};

/// Residual processor stall cycles of one BT stream's fills after time
/// extension; `ext` is the BT's extension record.
double bt_stall_cycles(const BlockTransfer& bt, const BtExtension& ext);

/// Total residual stall of a time-extended BT list (+ write-back flush
/// streams, which are never prefetchable and always block).
double total_stall_cycles(const std::vector<BlockTransfer>& bts, const TeResult& te);

/// Total DMA-engine busy cycles of a BT list (mode independent).
double total_dma_busy_cycles(const std::vector<BlockTransfer>& bts);

}  // namespace mhla::te
