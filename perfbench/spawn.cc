/**
 * @file
 * Launcher that measures one command of the repository benchmark:
 *
 *   perfbench_spawn CMD [ARGS...]
 *
 * Forks, execs CMD with its stdout on /dev/null, waits for it and
 * prints one JSON line on stdout:
 *
 *   {"status": S, "wall_s": W, "cpu_s": C, "maxrss_kb": K}
 *
 * wall_s is taken around fork/wait only, so the launcher's own
 * start-up is excluded. cpu_s and maxrss_kb cover CMD and every
 * descendant it waited for. The launcher exists because a child's
 * ru_maxrss includes the resident size of the process it was forked
 * from: forking CMD from this small process, not from run.py's
 * Python interpreter, keeps that floor at the launcher's own few
 * pages.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>

namespace {

double
now()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s CMD [ARGS...]\n", argv[0]);
        return 2;
    }
    const double t0 = now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return 2;
    }
    if (pid == 0) {
        const int null = open("/dev/null", O_WRONLY);
        if (null >= 0)
            dup2(null, STDOUT_FILENO);
        execv(argv[1], argv + 1);
        std::perror(argv[1]);
        _exit(127);
    }
    int status = 0;
    rusage ru{};
    if (wait4(pid, &status, 0, &ru) < 0) {
        std::perror("wait4");
        return 2;
    }
    const double wall = now() - t0;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    std::printf("{\"status\": %d, \"wall_s\": %.9f, \"cpu_s\": %.6f, "
                "\"maxrss_kb\": %ld}\n",
                code, wall,
                ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
                    ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6,
                ru.ru_maxrss);
    return 0;
}
