package lf

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"datasculpt/internal/obs"
)

// spillBytesPerVote approximates the resident cost of one sparse vote:
// a 4-byte document id plus a 1-byte vote. It is both the budget-
// accounting unit and the on-disk record width.
const spillBytesPerVote = 5

// spillState is the temp-file backing store behind a memory-bounded
// VoteMatrix. Columns are immutable once appended, so each is written to
// the spill file at most once (write-once); eviction of an
// already-written column just drops its resident slices, and fault-in
// reads fresh allocations back — callers that retained slices from an
// earlier Active call keep valid immutable data.
//
// The file is unlinked immediately after creation so it disappears with
// the process no matter how the run ends.
type spillState struct {
	mu     sync.Mutex
	budget int64 // resident sparse bytes allowed
	f      *os.File
	off    int64 // next write offset

	resident int64   // bytes of currently resident sparse columns
	written  []bool  // column has a copy in the file
	woff     []int64 // its offset there
	lastUse  []int64 // logical-clock recency per column
	tick     int64   // the clock

	// lifetime counts, kept locally so SpillStats works without metrics
	nSpills, nReloads int

	spills, reloads *obs.Counter
	residentGauge   *obs.Gauge
	fileGauge       *obs.Gauge
}

// SpillStats is a point-in-time snapshot of the backing store, for tests
// and the scale smoke check.
type SpillStats struct {
	Budget        int64 // configured resident budget, bytes
	ResidentBytes int64 // sparse bytes currently in memory
	FileBytes     int64 // bytes written to the spill file
	SpilledCols   int   // columns currently evicted
	Spills        int   // evictions performed over the matrix lifetime
	Reloads       int   // fault-ins performed over the matrix lifetime
}

// EnableSpill puts the matrix in memory-bounded mode: once the resident
// sparse bytes exceed budgetBytes, the least recently used columns are
// evicted to an unlinked temp file in dir ("" = os.TempDir())
// and transparently re-loaded on access. Metrics (may be nil) receives
// eval_votematrix_spill_* series.
//
// It must be called on an empty matrix (before the first AppendLFs) and
// requires budgetBytes > 0. The caller owns the file handle's lifetime
// via Close.
func (vm *VoteMatrix) EnableSpill(budgetBytes int64, dir string, metrics *obs.Registry) error {
	if vm.m != 0 {
		return fmt.Errorf("lf: EnableSpill on a matrix that already has %d columns", vm.m)
	}
	if budgetBytes <= 0 {
		return fmt.Errorf("lf: spill budget must be positive, got %d", budgetBytes)
	}
	f, err := os.CreateTemp(dir, "votematrix-*.spill")
	if err != nil {
		return fmt.Errorf("lf: create spill file: %w", err)
	}
	// Unlink immediately: the kernel reclaims the space when the handle
	// closes, even on a crash.
	os.Remove(f.Name())
	vm.spill = &spillState{
		budget:        budgetBytes,
		f:             f,
		spills:        metrics.Counter("eval_votematrix_spill_columns_total", "vote-matrix columns evicted to the spill file"),
		reloads:       metrics.Counter("eval_votematrix_spill_reloads_total", "vote-matrix columns faulted back in from the spill file"),
		residentGauge: metrics.Gauge("eval_votematrix_spill_resident_bytes", "resident sparse bytes of the spilling vote matrix"),
		fileGauge:     metrics.Gauge("eval_votematrix_spill_file_bytes", "bytes written to the vote-matrix spill file"),
	}
	return nil
}

// SpillStats snapshots the backing store; the zero value is returned for
// a matrix without spill enabled.
func (vm *VoteMatrix) SpillStats() SpillStats {
	s := vm.spill
	if s == nil {
		return SpillStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SpillStats{
		Budget:        s.budget,
		ResidentBytes: s.resident,
		FileBytes:     s.off,
		Spills:        s.nSpills,
		Reloads:       s.nReloads,
	}
	for j := 0; j < vm.m; j++ {
		if vm.active[j] == nil && vm.counts[j] > 0 {
			st.SpilledCols++
		}
	}
	return st
}

// Close releases the spill file handle (no-op without spill). The matrix
// must not be used afterwards.
func (vm *VoteMatrix) Close() error {
	if vm.spill == nil || vm.spill.f == nil {
		return nil
	}
	err := vm.spill.f.Close()
	vm.spill.f = nil
	return err
}

// activeCol returns column j's sparse view, faulting it in from the
// spill file when evicted. The non-spill path is a direct field read.
func (vm *VoteMatrix) activeCol(j int) ([]int32, []int8) {
	if vm.spill == nil {
		return vm.active[j], vm.activeVotes[j]
	}
	return vm.spillLoad(j)
}

// activeLen returns column j's non-abstain count without faulting it in.
func (vm *VoteMatrix) activeLen(j int) int {
	if vm.spill == nil {
		return len(vm.active[j])
	}
	return int(vm.counts[j])
}

// admitLocked accounts freshly appended or reloaded resident columns and
// evicts down to budget. pin is never evicted (the column the caller is
// about to use); pass -1 to allow any victim.
func (s *spillState) admitLocked(vm *VoteMatrix, addedBytes int64, pin int) {
	s.resident += addedBytes
	for s.resident > s.budget {
		victim, oldest := -1, int64(0)
		for j := 0; j < vm.m; j++ {
			if j == pin || vm.active[j] == nil || vm.counts[j] == 0 {
				continue
			}
			if victim == -1 || s.lastUse[j] < oldest {
				victim, oldest = j, s.lastUse[j]
			}
		}
		if victim == -1 {
			return // only the pinned column remains; budget + one column is the bound
		}
		s.evictLocked(vm, victim)
	}
	s.residentGauge.Set(float64(s.resident))
	s.fileGauge.Set(float64(s.off))
}

// evictLocked writes column j to the file if it has never been written
// and drops its resident slices.
func (s *spillState) evictLocked(vm *VoteMatrix, j int) {
	c := int(vm.counts[j])
	if !s.written[j] {
		buf := make([]byte, c*spillBytesPerVote)
		for t, id := range vm.active[j] {
			binary.LittleEndian.PutUint32(buf[t*4:], uint32(id))
		}
		voteBase := c * 4
		for t, v := range vm.activeVotes[j] {
			buf[voteBase+t] = byte(v)
		}
		if _, err := s.f.WriteAt(buf, s.off); err != nil {
			panic(fmt.Sprintf("lf: spill write: %v", err))
		}
		s.woff[j] = s.off
		s.off += int64(len(buf))
		s.written[j] = true
	}
	vm.active[j] = nil
	vm.activeVotes[j] = nil
	s.resident -= int64(c) * spillBytesPerVote
	s.nSpills++
	s.spills.Inc()
}

// spillLoad returns column j resident, faulting it in when evicted.
func (vm *VoteMatrix) spillLoad(j int) ([]int32, []int8) {
	s := vm.spill
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	s.lastUse[j] = s.tick
	if vm.active[j] != nil || vm.counts[j] == 0 {
		return vm.active[j], vm.activeVotes[j]
	}
	c := int(vm.counts[j])
	buf := make([]byte, c*spillBytesPerVote)
	if _, err := s.f.ReadAt(buf, s.woff[j]); err != nil {
		panic(fmt.Sprintf("lf: spill read: %v", err))
	}
	ids := make([]int32, c)
	votes := make([]int8, c)
	for t := range ids {
		ids[t] = int32(binary.LittleEndian.Uint32(buf[t*4:]))
	}
	voteBase := c * 4
	for t := range votes {
		votes[t] = int8(buf[voteBase+t])
	}
	vm.active[j] = ids
	vm.activeVotes[j] = votes
	s.nReloads++
	s.reloads.Inc()
	s.admitLocked(vm, int64(c)*spillBytesPerVote, j)
	return ids, votes
}

// spillAdmitNew accounts the columns appended in [base, vm.m) and evicts
// down to budget. Called once per AppendLFs, after the parallel build.
func (vm *VoteMatrix) spillAdmitNew(base int) {
	s := vm.spill
	s.mu.Lock()
	defer s.mu.Unlock()
	var added int64
	for j := base; j < vm.m; j++ {
		s.written = append(s.written, false)
		s.woff = append(s.woff, 0)
		s.tick++
		s.lastUse = append(s.lastUse, s.tick)
		added += int64(vm.counts[j]) * spillBytesPerVote
	}
	s.admitLocked(vm, added, -1)
}
