// An empty scope object, kept only so that code outside the library that
// still constructs one (the end-to-end benchmark's engine, perfbench/)
// keeps compiling. The library has no thread pool: statements, MNSA runs,
// Shrinking Set passes and statistic builds all run on the calling
// thread, so there is nothing for this scope to switch off. Nothing in
// src/, tests/, bench/ or examples/ uses it.
#ifndef AUTOSTATS_COMMON_PARALLEL_H_
#define AUTOSTATS_COMMON_PARALLEL_H_

namespace autostats {

class ParallelInlineScope {
 public:
  // User-provided, so an otherwise unused instance draws no
  // unused-variable warning.
  ParallelInlineScope() {}
  ParallelInlineScope(const ParallelInlineScope&) = delete;
  ParallelInlineScope& operator=(const ParallelInlineScope&) = delete;
};

}  // namespace autostats

#endif  // AUTOSTATS_COMMON_PARALLEL_H_
