// Bit-slicing of integer weights and inputs (paper §II-A).
//
// NVM devices hold few bits, so a b-bit weight magnitude is split into
// ceil(b / slice_bits) slices of slice_bits each (weight slices), and a
// b-bit input into ceil(b / stream_bits) chunks applied as successive DAC
// voltages (input streams). Results recombine digitally by shift-and-add.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace nvm::puma {

/// Number of slices needed to hold `value_bits` in chunks of `chunk_bits`.
std::int64_t slice_count(std::int64_t value_bits, std::int64_t chunk_bits);

/// Extracts chunk `index` (little-endian: index 0 = least significant)
/// of `chunk_bits` bits from every non-negative integer-valued element of
/// `src` into caller scratch `dst` (src.size() elements). Returns the
/// maximum chunk value, so callers can skip all-zero chunks without a
/// second pass.
float extract_chunk_into(std::span<const float> src, std::int64_t index,
                         std::int64_t chunk_bits, std::span<float> dst);

/// Integer twin of extract_chunk_into for the bit-slice fast path
/// (DESIGN.md §13): src holds int16 codes, dst receives int8 chunk values
/// (requires chunk_bits <= 7 so chunks fit int8). Returns the maximum
/// chunk value. Chunk values are identical to what extract_chunk_into
/// yields on the float image of src.
int extract_chunk_i16_into(std::span<const std::int16_t> src,
                           std::int64_t index, std::int64_t chunk_bits,
                           std::span<std::int8_t> dst);

/// Weight of chunk `index` in the shift-add recombination: 2^(index*bits).
float chunk_weight(std::int64_t index, std::int64_t chunk_bits);

}  // namespace nvm::puma
