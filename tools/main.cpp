// ftsynth -- fault tree synthesis for annotated Simulink-style models.

#include <iostream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "tools/cli.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
#if defined(__GLIBC__)
  // Every command but `serve` runs one request and exits. Fixed malloc
  // thresholds keep large cut-set families on the heap, where freed
  // blocks are reused instead of unmapped and faulted in again, and
  // nothing is trimmed before exit. The daemon keeps glibc's adaptive
  // defaults so it hands memory back between requests.
  if (args.empty() || args[0] != "serve") {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
  }
#endif
  return ftsynth::cli::run(args, std::cout, std::cerr);
}
