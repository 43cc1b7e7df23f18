#include "bench.h"

int
main(int argc, char **argv)
{
    return perfbench::runBenchmark(perfbench::parseOptions(argc, argv));
}
