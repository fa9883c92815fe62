// Writes a fresh process's self-profile to stdout. test_obs runs it as the
// child of a process that holds a large resident set, to check that the
// profile reports the child's own peak.
#include <iostream>

#include "obs/profile.hpp"

int main() {
  atacsim::obs::SelfProfile::instance().write_json(std::cout, "child");
  return std::cout.good() ? 0 : 1;
}
