//===- golden_space_test.cpp - Enumeration golden anchors ------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the exact shape of several enumerated spaces, and the serialized
// DAG of every suite function. Any change to a phase, to canonicalization,
// or to the enumerator that alters the space of these functions shows up
// here first — with the understanding that an intentional optimizer
// change legitimately updates these numbers (like a compiler's
// golden-output tests).
//
//===----------------------------------------------------------------------===//

#include "src/core/SpaceStats.h"
#include "src/opt/PhaseManager.h"
#include "src/store/ByteIo.h"
#include "src/store/Serialize.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>

using namespace pose;
using namespace pose::testhelpers;

namespace {

struct GoldenSpace {
  const char *Program;
  const char *Function;
  uint64_t Instances;
  uint64_t Attempted;
  uint32_t MaxLen;
  uint64_t Leaves;
  uint32_t BestSize;
  uint32_t WorstSize;
};

// Values recorded from the 1M-budget enumeration (see bench_output.txt).
const GoldenSpace Goldens[] = {
    {"dijkstra", "dijkstra", 1927, 21038, 16, 10, 88, 115},
    {"sha", "sha_transform", 120, 1431, 11, 8, 190, 248},
    {"bitcount", "bit_count", 194, 2388, 12, 5, 15, 25},
    {"fft", "bit_reverse", 242, 2791, 12, 5, 46, 72},
};

TEST(GoldenSpace, KnownSpacesStayStable) {
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  for (const GoldenSpace &G : Goldens) {
    const Workload *W = findWorkload(G.Program);
    ASSERT_NE(W, nullptr);
    Module M = compileOrDie(W->Source);
    Function &F = functionNamed(M, G.Function);
    EnumerationResult R = E.enumerate(F);
    ASSERT_TRUE(R.complete()) << G.Function;
    SpaceStats S = computeSpaceStats(F, R);
    EXPECT_EQ(S.FnInstances, G.Instances) << G.Function;
    EXPECT_EQ(S.AttemptedPhases, G.Attempted) << G.Function;
    EXPECT_EQ(S.MaxActiveLen, G.MaxLen) << G.Function;
    EXPECT_EQ(S.LeafInstances, G.Leaves) << G.Function;
    EXPECT_EQ(S.LeafCodeSizeMin, G.BestSize) << G.Function;
    EXPECT_EQ(S.LeafCodeSizeMax, G.WorstSize) << G.Function;
  }
}

/// One suite function's space: the shape perfbench/expected/suite.tsv
/// records (instances, attempted, leaves, max active length) plus a
/// digest of the DAG exactly as the artifact store serializes it.
struct GoldenDag {
  const char *Key; ///< program/function
  uint64_t Instances;
  uint64_t Attempted;
  uint64_t Leaves;
  uint32_t MaxLen;
  uint64_t Digest; ///< FNV-1a 64 of encodeResult's bytes
};

// Recorded from the 1M-budget single-thread enumeration of every suite
// function before the single-analysis-per-round rewrite of phases s, h
// and c, which must leave every DAG byte-identical. A row that fails
// prints its replacement.
const GoldenDag SuiteGoldens[] = {
    {"bitcount/bit_count", 194, 2388, 5, 12, 0xfb81236eac05438cull},
    {"bitcount/bit_shifter", 107, 1302, 5, 10, 0xfa7a074352f1cdb2ull},
    {"bitcount/ntbl_bitcount", 12, 146, 1, 6, 0x89db7559ce31ae85ull},
    {"bitcount/btbl_init", 34, 401, 5, 8, 0x34918f32fbfddf30ull},
    {"bitcount/btbl_bitcount", 12, 146, 1, 6, 0xa52e53ee55a27831ull},
    {"bitcount/bitcount_swar", 15, 185, 3, 7, 0x731dd3da9141d7c7ull},
    {"bitcount/bitcount_recursive", 38, 436, 2, 8, 0xf9d717e0fa5e3963ull},
    {"bitcount/bitcount_dense", 15, 185, 3, 7, 0xcae729f6080ca40full},
    {"bitcount/main", 104, 1206, 5, 9, 0xe6bab0c51e137726ull},
    {"dijkstra/build_graph", 402, 4591, 9, 12, 0x2d1d610029c9f53eull},
    {"dijkstra/pick_nearest", 128, 1482, 5, 10, 0x8eae5c83c82854bbull},
    {"dijkstra/dijkstra", 1927, 21038, 10, 16, 0x123fbe33acdc1355ull},
    {"dijkstra/enqueue", 6, 68, 2, 3, 0x5314648a93450cbbull},
    {"dijkstra/dequeue", 20, 249, 2, 7, 0xf844a24b303738f5ull},
    {"dijkstra/qcount", 2, 25, 1, 1, 0xbee98d7f41333cb0ull},
    {"dijkstra/path_length", 75, 924, 3, 10, 0xcdd5fbc964ba1048ull},
    {"dijkstra/main", 166, 2028, 9, 11, 0x752319bc5518b9e3ull},
    {"fft/fix_mul", 6, 68, 2, 3, 0x696539fbc18e4e21ull},
    {"fft/make_sine", 56, 678, 6, 9, 0xb6114c4baa52a930ull},
    {"fft/sin_q", 6, 68, 2, 3, 0xbc76419f837aaea4ull},
    {"fft/cos_q", 6, 68, 2, 3, 0x473179483e133cb3ull},
    {"fft/load_signal", 34, 408, 5, 8, 0x135962fb922ec061ull},
    {"fft/bit_reverse", 242, 2791, 5, 12, 0x41f713db4ad5404dull},
    {"fft/fix_fft", 65, 795, 6, 9, 0xd4a83fed1d82af61ull},
    {"fft/isqrt", 170, 1987, 6, 11, 0xb126a06a8a4a3176ull},
    {"fft/window_signal", 1149, 12931, 13, 15, 0x63fadec23f45b6a2ull},
    {"fft/spectrum_checksum", 79, 961, 8, 9, 0x34921fdbc383802full},
    {"fft/main", 16, 196, 4, 7, 0xf60a4a0b954a6d2eull},
    {"jpeg/rgb_ycc_setup", 37, 428, 5, 7, 0x711c25179e216e41ull},
    {"jpeg/rgb_to_y", 6, 68, 2, 3, 0x177f8dfcb3d5c96dull},
    {"jpeg/fill_block", 148, 1827, 11, 14, 0xef8a1345ad41079aull},
    {"jpeg/forward_dct_rows", 282, 3335, 8, 13, 0x482a4c3e1eec30d7ull},
    {"jpeg/forward_dct_cols", 242, 2879, 8, 12, 0x403fb0f872bce713ull},
    {"jpeg/quantize_block", 296, 3384, 14, 11, 0x22c0806e79cdd47dull},
    {"jpeg/zigzag_order", 37, 446, 4, 8, 0xd637d57f0d44f604ull},
    {"jpeg/dequantize_block", 38, 451, 5, 8, 0x8dc3ab5c43e10050ull},
    {"jpeg/reconstruction_error", 132, 1526, 6, 10, 0xeece47478bc59e6eull},
    {"jpeg/emit_bits", 45, 532, 3, 9, 0x316deb6c049ede70ull},
    {"jpeg/flush_bits", 12, 130, 2, 4, 0x6a0406503a073e75ull},
    {"jpeg/magnitude_bits", 404, 4730, 8, 15, 0xd2dc46609210ccbbull},
    {"jpeg/encode_block", 404, 4418, 14, 11, 0xb52cbb13aaa58fe8ull},
    {"jpeg/packed_checksum", 306, 3724, 8, 12, 0x8f917d517492e94bull},
    {"jpeg/run_length_checksum", 280, 3252, 10, 11, 0x8e1b3e8cbbcd5073ull},
    {"jpeg/main", 24, 299, 3, 7, 0x0d106ccecf645572ull},
    {"sha/rotl", 7, 90, 1, 5, 0x13faecca9b51ffcaull},
    {"sha/sha_init", 4, 47, 2, 2, 0x34c688cfa75b9c6dull},
    {"sha/fill_data", 46, 556, 5, 9, 0xfa963cff554a4b30ull},
    {"sha/sha_transform", 120, 1431, 8, 11, 0xf06e374d7000e11full},
    {"sha/copy_block", 45, 533, 5, 8, 0xed17ffcec93301dfull},
    {"sha/block_checksum", 93, 1142, 7, 10, 0x60ccd5221737e9c0ull},
    {"sha/main", 145, 1772, 5, 11, 0x2500c196f096b938ull},
    {"stringsearch/str_len", 198, 2291, 4, 13, 0xd12d949bf351c53bull},
    {"stringsearch/bmh_init", 49, 586, 4, 9, 0xe803bf014770db11ull},
    {"stringsearch/text_len", 35, 418, 2, 8, 0x1801f29112aa71fcull},
    {"stringsearch/bmh_search", 178, 2030, 7, 11, 0x6e352685b6ae363eull},
    {"stringsearch/to_lower", 24, 268, 1, 7, 0x109436750339b63aull},
    {"stringsearch/naive_search", 169, 1917, 5, 11, 0xc8611c29c8b495b8ull},
    {"stringsearch/count_matches", 132, 1443, 4, 10, 0x906d5e59e23d7a95ull},
    {"stringsearch/count_naive", 132, 1443, 4, 10, 0xc17eb17b0020ac9eull},
    {"stringsearch/main", 22, 274, 3, 7, 0x6fd60bf06c35863aull},
    {"crc32/make_crc_table", 2037, 23183, 24, 17, 0xa15442bea3eff314ull},
    {"crc32/crc_bitwise", 248, 2900, 8, 11, 0x043bb6621b1e6d92ull},
    {"crc32/crc_byte", 12, 146, 1, 6, 0xb866032c4adc2427ull},
    {"crc32/crc_nibble", 11, 133, 2, 5, 0x3b1e2cf4ae5ee987ull},
    {"crc32/fill_stream", 42, 508, 5, 9, 0x5971b996443fcf91ull},
    {"crc32/crc_of_stream", 865, 10042, 16, 13, 0xaaa9299de50dd1c2ull},
    {"crc32/main", 152, 1742, 5, 11, 0xc77ab30e28f221f7ull},
};

uint64_t serializedDigest(const EnumerationResult &R) {
  ByteWriter W;
  store::encodeResult(W, R);
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : W.bytes()) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

TEST(GoldenSpace, WholeSuiteDagsStayByteIdentical) {
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  size_t Next = 0;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (const Function &F : M.Functions) {
      const std::string Key = std::string(W.Name) + "/" + F.Name;
      EnumerationResult R = E.enumerate(F);
      ASSERT_TRUE(R.complete()) << Key;
      char Row[160];
      std::snprintf(Row, sizeof(Row),
                    "{\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                    ", %u, 0x%016" PRIx64 "ull},",
                    Key.c_str(), static_cast<uint64_t>(R.Nodes.size()),
                    R.AttemptedPhases, static_cast<uint64_t>(R.leafCount()),
                    R.MaxActiveLength, serializedDigest(R));
      ASSERT_LT(Next, std::size(SuiteGoldens)) << "unrecorded: " << Row;
      const GoldenDag &G = SuiteGoldens[Next++];
      EXPECT_EQ(Key, G.Key);
      EXPECT_EQ(R.Nodes.size(), G.Instances) << Row;
      EXPECT_EQ(R.AttemptedPhases, G.Attempted) << Row;
      EXPECT_EQ(R.leafCount(), G.Leaves) << Row;
      EXPECT_EQ(R.MaxActiveLength, G.MaxLen) << Row;
      EXPECT_EQ(serializedDigest(R), G.Digest) << Row;
    }
  }
  EXPECT_EQ(Next, std::size(SuiteGoldens));
}

} // namespace
