/* A monotonic clock in seconds, to the nanosecond. Unix.gettimeofday
   moves in microsteps and follows wall-clock adjustments; a cache hit
   served over a socket takes about 25 microseconds. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double fpxbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value fpxbench_now_byte(value unit)
{
  return caml_copy_double(fpxbench_now(unit));
}
