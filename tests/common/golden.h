// Golden-file comparison shared by the byte-level pin suites: the
// alignment goldens in tests/align/golden/ and the wire goldens in
// tests/server/golden/. Each suite passes its own golden directory.
//
// On a mismatch the actual text is written to <golden name>.actual in the
// test's working directory. Copy it over the golden only when the change
// in behaviour is intended.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace lce::testing {

inline std::string read_golden(const std::string& dir, const std::string& name) {
  std::ifstream in(dir + "/" + name, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline void expect_golden(const std::string& dir, const std::string& name,
                          const std::string& actual) {
  std::string want = read_golden(dir, name);
  if (actual == want) return;
  std::ofstream(name + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << "output differs from golden " << name << " (" << actual.size()
                << " vs " << want.size() << " bytes); actual written to " << name
                << ".actual";
}

}  // namespace lce::testing
