//===- support/Stats.cpp - Running sample statistics ---------------------===//

#include "support/Stats.h"

using namespace perfplay;

void RunningStats::add(double Sample) {
  if (Count == 0) {
    Min = Max = Sample;
  } else {
    if (Sample < Min)
      Min = Sample;
    if (Sample > Max)
      Max = Sample;
  }
  ++Count;
  Mean += (Sample - Mean) / static_cast<double>(Count);
}
