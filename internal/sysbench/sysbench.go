// Package sysbench reimplements the SysBench fileio benchmark the paper
// runs in Sec 5.4.1 (Fig 11): prepare a set of files, then issue random
// reads/writes of a fixed block size from a pool of worker threads, and
// report IOPS. The file system under test is internal/wfs, whose backend
// is either a local (throttled) disk tier or remote memory through Wiera —
// the two bars of Fig 11. No page cache exists in wfs, matching the
// paper's O_DIRECT setting.
package sysbench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/wfs"
)

// Mode selects the I/O mix.
type Mode string

// SysBench fileio modes.
const (
	RndRead  Mode = "rndrd"
	RndWrite Mode = "rndwr"
	RndRW    Mode = "rndrw" // 60/40 read/write split, SysBench's default
)

// Config parameterizes a run.
type Config struct {
	// FS is the file system under test.
	FS *wfs.FS
	// Clock measures the run in simulated time (IOPS are clock-relative).
	Clock clock.Clock
	// Files and FileSize shape the prepared data set.
	Files    int
	FileSize int64
	// BlockSize is the I/O unit (SysBench default 16 KiB).
	BlockSize int
	// Threads is the worker pool size (SysBench default 1; the paper's
	// runs use concurrency to expose throughput limits).
	Threads int
	// Ops is the total operation count across all threads.
	Ops int
	// Mode is the I/O mix.
	Mode Mode
	// Seed makes runs reproducible.
	Seed int64
}

func (c *Config) defaults() error {
	if c.FS == nil {
		return errors.New("sysbench: FS required")
	}
	if c.Clock == nil {
		return errors.New("sysbench: clock required")
	}
	if c.Files <= 0 {
		c.Files = 4
	}
	if c.FileSize <= 0 {
		c.FileSize = 1 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 16 * 1024
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	switch c.Mode {
	case RndRead, RndWrite, RndRW:
	case "":
		c.Mode = RndRead
	default:
		return fmt.Errorf("sysbench: unknown mode %q", c.Mode)
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	Ops      int
	Duration time.Duration // clock time
	IOPS     float64
	ReadLat  *telemetry.Histogram
	WriteLat *telemetry.Histogram
	Errors   int64
}

// Prepare creates the test files (the "sysbench prepare" phase).
func Prepare(cfg Config) error {
	if err := cfg.defaults(); err != nil {
		return err
	}
	buf := make([]byte, cfg.BlockSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < cfg.Files; i++ {
		f, err := cfg.FS.Create(fileName(i))
		if err != nil {
			return err
		}
		var off int64
		for off < cfg.FileSize {
			n := int64(len(buf))
			if off+n > cfg.FileSize {
				n = cfg.FileSize - off
			}
			if _, err := f.WriteAt(buf[:n], off); err != nil {
				f.Close()
				return err
			}
			off += n
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func fileName(i int) string { return fmt.Sprintf("/sysbench/test_file.%d", i) }

// Run executes the benchmark (files must be prepared) and reports IOPS
// measured on the simulated clock.
func Run(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	files := make([]*wfs.File, cfg.Files)
	for i := range files {
		f, err := cfg.FS.Open(fileName(i))
		if err != nil {
			return nil, fmt.Errorf("sysbench: run before prepare: %w", err)
		}
		files[i] = f
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()

	res := &Result{ReadLat: telemetry.NewHistogram(), WriteLat: telemetry.NewHistogram()}
	var errCount atomic.Int64
	blocksPerFile := cfg.FileSize / int64(cfg.BlockSize)
	if blocksPerFile == 0 {
		return nil, errors.New("sysbench: file smaller than block size")
	}

	start := cfg.Clock.Now()
	var wg sync.WaitGroup
	perThread := cfg.Ops / cfg.Threads
	extra := cfg.Ops % cfg.Threads
	for th := 0; th < cfg.Threads; th++ {
		ops := perThread
		if th < extra {
			ops++
		}
		wg.Add(1)
		go func(th, ops int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(th)))
			block := make([]byte, cfg.BlockSize)
			for i := range block {
				block[i] = byte(th + i)
			}
			buf := make([]byte, cfg.BlockSize)
			for i := 0; i < ops; i++ {
				f := files[rng.Intn(len(files))]
				off := rng.Int63n(blocksPerFile) * int64(cfg.BlockSize)
				write := false
				switch cfg.Mode {
				case RndWrite:
					write = true
				case RndRW:
					write = rng.Float64() < 0.4
				}
				opStart := cfg.Clock.Now()
				var err error
				if write {
					_, err = f.WriteAt(block, off)
					if err == nil {
						res.WriteLat.Record(cfg.Clock.Since(opStart))
					}
				} else {
					_, err = f.ReadAt(buf, off)
					if err == nil {
						res.ReadLat.Record(cfg.Clock.Since(opStart))
					}
				}
				if err != nil {
					errCount.Add(1)
				}
			}
		}(th, ops)
	}
	wg.Wait()
	res.Duration = cfg.Clock.Since(start)
	res.Ops = cfg.Ops
	res.Errors = errCount.Load()
	if res.Duration > 0 {
		res.IOPS = float64(cfg.Ops-int(res.Errors)) / res.Duration.Seconds()
	}
	return res, nil
}
