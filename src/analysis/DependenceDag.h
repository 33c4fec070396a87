//===- DependenceDag.h - Intra-block dependence analysis -------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The must-precede relation between instructions of one basic block,
/// shared by the two in-block reordering passes (evaluation order
/// determination and the final instruction scheduler): register RAW/WAR/
/// WAW, condition-code dependences, memory ordering (stores and calls are
/// barriers; loads may reorder among themselves), and block-final control
/// transfers.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_ANALYSIS_DEPENDENCEDAG_H
#define POSE_ANALYSIS_DEPENDENCEDAG_H

#include <cstddef>
#include <vector>

namespace pose {

struct BasicBlock;

/// Returns, for each instruction index J of \p B, the earlier indices
/// that must stay before J under any legal reordering, sorted ascending
/// and without duplicates.
std::vector<std::vector<size_t>> blockDependences(const BasicBlock &B);

} // namespace pose

#endif // POSE_ANALYSIS_DEPENDENCEDAG_H
