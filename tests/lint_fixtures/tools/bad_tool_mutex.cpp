// Fixture: the front ends under tools/ share the lock vocabulary of src/,
// so a raw std:: locking primitive here must fire `bare-mutex` — and only
// that rule: std streams, clock reads and metric names are the CLI's job.
#include <chrono>
#include <iostream>
#include <mutex>  // expect: bare-mutex

std::mutex g_print_mu;  // expect: bare-mutex

void print_line(const char* line) {
  std::lock_guard<std::mutex> lock(g_print_mu);  // expect: bare-mutex
  const auto t = std::chrono::steady_clock::now();
  static_cast<void>(t);
  std::cout << line << " engine.errors" << '\n';
}
