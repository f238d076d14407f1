package main

import (
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simfs"
)

// timingFS wraps another simfs.FS and times the operations the durable
// paths perform. Installed with simfs.Swap during a traced grrd-fleet
// run, it sees every journal and EPOCH write of both nodes.
type timingFS struct {
	under simfs.FS

	fsyncs     atomic.Int64
	fsyncNs    atomic.Int64
	writeBytes atomic.Int64

	mu sync.Mutex
	// open maps an atomic write's temp path to when it was created;
	// the write ends at the rename of that path.
	open         map[string]time.Time
	atomicWrites int64
	atomicNs     int64
}

func newTimingFS(under simfs.FS) *timingFS {
	return &timingFS{under: under, open: map[string]time.Time{}}
}

func (t *timingFS) Create(path string) (simfs.File, error) {
	start := time.Now()
	f, err := t.under.Create(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".tmp") {
		t.mu.Lock()
		t.open[path] = start
		t.mu.Unlock()
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Open(path string) (simfs.File, error) { return t.under.Open(path) }

func (t *timingFS) OpenDir(dir string) (simfs.File, error) {
	f, err := t.under.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Rename(from, to string) error {
	err := t.under.Rename(from, to)
	t.mu.Lock()
	if start, ok := t.open[from]; ok {
		delete(t.open, from)
		if err == nil {
			t.atomicWrites++
			t.atomicNs += int64(time.Since(start))
		}
	}
	t.mu.Unlock()
	return err
}

func (t *timingFS) Remove(path string) error {
	t.mu.Lock()
	delete(t.open, path)
	t.mu.Unlock()
	return t.under.Remove(path)
}

func (t *timingFS) ReadFile(path string) ([]byte, error)      { return t.under.ReadFile(path) }
func (t *timingFS) ReadDir(dir string) ([]fs.DirEntry, error) { return t.under.ReadDir(dir) }
func (t *timingFS) MkdirAll(dir string, perm fs.FileMode) error {
	return t.under.MkdirAll(dir, perm)
}

// timingFile counts bytes written and times Sync, for files and
// directory handles alike.
type timingFile struct {
	simfs.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.fsyncNs.Add(int64(time.Since(start)))
	f.fs.fsyncs.Add(1)
	return err
}

// fsStats is a snapshot of the timing counters.
type fsStats struct {
	fsyncs, atomicWrites     int64
	fsyncS, writeMB, atomicS float64
}

func (t *timingFS) stats() fsStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fsStats{
		fsyncs:       t.fsyncs.Load(),
		fsyncS:       time.Duration(t.fsyncNs.Load()).Seconds(),
		writeMB:      float64(t.writeBytes.Load()) / 1e6,
		atomicS:      time.Duration(t.atomicNs).Seconds(),
		atomicWrites: t.atomicWrites,
	}
}
