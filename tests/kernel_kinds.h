#pragma once

/// \file kernel_kinds.h
/// Helpers for tests that run a check under every kernel table the CPU
/// supports (gf/kernels.h): the list of tables, and a guard that puts
/// the auto-dispatched table back when the test ends.

#include <vector>

#include "gf/kernels.h"

namespace icollect::testkit {

/// Every kernel table this CPU supports, scalar (the reference) first.
inline std::vector<gf::Kernels::Kind> supported_kernels() {
  std::vector<gf::Kernels::Kind> kinds{gf::Kernels::Kind::kScalar};
  for (const auto kind :
       {gf::Kernels::Kind::kSsse3, gf::Kernels::Kind::kAvx2}) {
    if (gf::Kernels::supported(kind)) kinds.push_back(kind);
  }
  return kinds;
}

/// Restores auto-dispatch on scope exit, so a test that selects tables
/// leaves the default for the tests after it.
struct RestoreAutoKernel {
  RestoreAutoKernel() = default;
  RestoreAutoKernel(const RestoreAutoKernel&) = delete;
  RestoreAutoKernel& operator=(const RestoreAutoKernel&) = delete;
  ~RestoreAutoKernel() { gf::Kernels::select(gf::Kernels::Kind::kAuto); }
};

}  // namespace icollect::testkit
