package bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// OneCPU confines the process — every thread it has, so every thread and
// child process it starts later — to one processor and one CPU: the
// highest-numbered one it may run on (CPU 0 takes the virtual machine's
// device interrupts). Both benchmark commands call it first thing.
//
// The reference box's two cores are shared with other tenants. Whenever the
// second one is busy elsewhere, a process that counts on it (concurrent
// collector, handler goroutines, a server process woken on the other core)
// slows by up to 2x for tens of seconds: measured here, tcp_read_heavy is 65%
// faster and three times steadier with runner and benchd taking turns on one
// CPU than spread over two. Serialised on one, a run repeats.
func OneCPU() error {
	runtime.GOMAXPROCS(1)
	var mask [16]uint64 // a cpu_set_t: 1024 CPUs
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	last := -1
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			last = cpu
		}
	}
	if last < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	// A thread started meanwhile by one not yet confined would escape a
	// single pass: repeat until a pass meets no new thread.
	pinned := map[string]bool{}
	for again := true; again; {
		again = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[t.Name()] {
				continue
			}
			// ESRCH: the thread ended between the listing and the call.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, ptr); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", errno)
			}
			pinned[t.Name()], again = true, true
		}
	}
	return nil
}

// ProcStats is one process's cumulative resource use.
type ProcStats struct {
	PID        int
	CPUNs      int64  // user + system
	Mallocs    uint64 // runtime.MemStats.Mallocs
	AllocBytes uint64 // runtime.MemStats.TotalAlloc
	PeakRSSKiB int64  // VmHWM
}

// ReadProcStats reads the calling process's counters.
func ReadProcStats() ProcStats {
	p := ProcStats{PID: os.Getpid(), PeakRSSKiB: peakRSSKiB()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Mallocs, p.AllocBytes = ms.Mallocs, ms.TotalAlloc
	return p
}

// Sub returns the use between before and p; peak RSS keeps p's value.
func (p ProcStats) Sub(before ProcStats) ProcStats {
	p.CPUNs -= before.CPUNs
	p.Mallocs -= before.Mallocs
	p.AllocBytes -= before.AllocBytes
	return p
}

// peakRSSKiB reads the resident-set high-water mark from /proc (0 when
// unavailable).
func peakRSSKiB() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}
