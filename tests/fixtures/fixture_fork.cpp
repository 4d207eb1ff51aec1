// Forking fixture: the parent locks before and after fork(), and the
// child locks once and exits.  A recording must still leave the
// parent's complete trace at the output path; the child records into
// its own `<out>.fork.<pid>` stream.

#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

pthread_mutex_t M = PTHREAD_MUTEX_INITIALIZER;

void lockLoop(int Rounds) {
  for (int I = 0; I < Rounds; ++I) {
    pthread_mutex_lock(&M);
    pthread_mutex_unlock(&M);
  }
}

} // namespace

int main() {
  lockLoop(2000);
  pid_t Child = fork();
  if (Child == 0) {
    lockLoop(1);
    _exit(0);
  }
  if (Child < 0 || waitpid(Child, nullptr, 0) != Child)
    return 1;
  lockLoop(10);
  return 0;
}
