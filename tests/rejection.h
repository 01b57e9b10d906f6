// Test helper for the library's rejections: the CheckError message a call
// must throw, so a test can check what the message names.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"

namespace dflp {

/// Runs `body` and returns the CheckError message it must throw.
template <typename Body>
std::string rejection_message(Body&& body) {
  try {
    body();
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a CheckError";
  return {};
}

}  // namespace dflp
