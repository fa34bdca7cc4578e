# ctest driver for the byte-identity gates: runs one benchmark in smoke mode
# at the pinned seed and requires every counter to match the committed
# baseline EXACTLY via bench_compare.py --exact-counters. The benchmarks are
# deterministic, so their counters at a fixed seed are a pure function of the
# code — any drift means event ordering, RNG consumption, or delivery
# semantics changed (see DESIGN.md §3d).
#
# Expects: BENCH (bench binary), BASELINE (committed JSON), COMPARE
# (tools/bench_compare.py), PYTHON (python3), OUT (scratch JSON path).
execute_process(
  COMMAND ${BENCH} --smoke --seed 42 --json ${OUT}
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench run failed (rc=${bench_rc}): ${BENCH}")
endif()
execute_process(
  COMMAND ${PYTHON} ${COMPARE} ${BASELINE} ${OUT} --exact-counters
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "byte identity violated (rc=${compare_rc}): counters at seed 42 "
          "diverged from ${BASELINE}")
endif()
