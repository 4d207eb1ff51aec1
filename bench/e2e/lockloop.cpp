// lockloop: a plain pthread program for the record-lockloop workload.
//
//   lockloop <threads> <mutexes> <iterations> <work> <seed>
//
// Each thread runs <iterations> rounds: <work> LCG steps of private
// computation, then one critical section on a mutex the LCG picks,
// which bumps that mutex's counter.  Every round is exactly one
// pthread_mutex_lock + one pthread_mutex_unlock, so a recording with no
// drops holds threads x iterations critical sections.  The output line
// is the same natively and under the recorder; the benchmark compares
// the two.

#include <cstdio>
#include <cstdlib>
#include <pthread.h>
#include <vector>

namespace {

struct Args {
  unsigned long Iterations;
  unsigned long Work;
  unsigned long Seed;
  unsigned Mutexes;
};

Args Config;
std::vector<pthread_mutex_t> Mutexes;
std::vector<unsigned long> Counters;

void *worker(void *Arg) {
  unsigned long State = Config.Seed * 6364136223846793005UL +
                        reinterpret_cast<unsigned long>(Arg);
  for (unsigned long I = 0; I != Config.Iterations; ++I) {
    for (unsigned long K = 0; K != Config.Work; ++K)
      State = State * 6364136223846793005UL + 1442695040888963407UL;
    const unsigned M = static_cast<unsigned>(State >> 33) % Config.Mutexes;
    pthread_mutex_lock(&Mutexes[M]);
    ++Counters[M];
    pthread_mutex_unlock(&Mutexes[M]);
  }
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 6) {
    std::fprintf(stderr,
                 "usage: lockloop <threads> <mutexes> <iterations> <work> "
                 "<seed>\n");
    return 2;
  }
  const unsigned Threads = static_cast<unsigned>(std::atoi(Argv[1]));
  Config.Mutexes = static_cast<unsigned>(std::atoi(Argv[2]));
  Config.Iterations = std::strtoul(Argv[3], nullptr, 10);
  Config.Work = std::strtoul(Argv[4], nullptr, 10);
  Config.Seed = std::strtoul(Argv[5], nullptr, 10);
  if (Threads == 0 || Config.Mutexes == 0) {
    std::fprintf(stderr, "lockloop: threads and mutexes must be positive\n");
    return 2;
  }

  Mutexes.resize(Config.Mutexes);
  for (pthread_mutex_t &M : Mutexes)
    pthread_mutex_init(&M, nullptr);
  Counters.assign(Config.Mutexes, 0);

  std::vector<pthread_t> Ids(Threads);
  for (unsigned T = 0; T != Threads; ++T)
    pthread_create(&Ids[T], nullptr, &worker,
                   reinterpret_cast<void *>(static_cast<unsigned long>(T)));
  for (pthread_t Id : Ids)
    pthread_join(Id, nullptr);

  unsigned long Sections = 0, Checksum = 0;
  for (unsigned M = 0; M != Config.Mutexes; ++M) {
    Sections += Counters[M];
    Checksum = Checksum * 31 + Counters[M];
  }
  std::printf("lockloop sections=%lu checksum=%lu\n", Sections, Checksum);
  return 0;
}
