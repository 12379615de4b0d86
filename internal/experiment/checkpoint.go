package experiment

import (
	"fmt"

	"datasculpt/internal/ckpt"
	"datasculpt/internal/core"
)

// Grid checkpointing: every completed (method, dataset, seed) cell is
// appended to a JSONL file as one self-contained record, and a later
// sweep over the same grid can skip the cells already on disk
// (Options.ResumeFrom). Records are written with a single Write call per
// line, so a crash or Ctrl-C can at worst tear the final line — which
// the loader tolerates and the resumed sweep simply recomputes.
//
// Only successful cells are checkpointed. A cell that failed (recorded
// under Options.KeepGoing) is re-run on resume: transient failures are
// exactly what a restart should retry.

// CellRecord is one completed cell in a checkpoint file. Grid is the
// sweep title, so one file can hold several sweeps (`benchtab -all`)
// without cross-contaminating resumes. Result keeps the statistics grid
// aggregation and rendering consume (see core.Result's JSON form); the
// LF set itself is deliberately dropped.
type CellRecord struct {
	Grid    string       `json:"grid"`
	Method  string       `json:"method"`
	Dataset string       `json:"dataset"`
	Seed    int          `json:"seed"`
	Result  *core.Result `json:"result"`
}

// checkpointForm returns the part of r a checkpoint record keeps: a
// copy without the LF set, rejection counts and trained artifacts, so
// a grid holds every cell's seeds cheaply. A nil r stays nil.
func checkpointForm(r *core.Result) *core.Result {
	if r == nil {
		return nil
	}
	c := *r
	c.LFs, c.Rejections, c.Artifacts = nil, nil, nil
	return &c
}

// cellKey identifies a cell within one sweep.
func cellKey(method, ds string, seed int) string {
	return fmt.Sprintf("%s|%s|%d", method, ds, seed)
}

// LoadCheckpoint reads every intact record of a checkpoint file. A
// missing file is an empty checkpoint (first run of a -resume sweep),
// and a torn or malformed final line — the footprint of a crash mid-
// append — is skipped rather than fatal. A malformed line anywhere
// else is reported: that is corruption, not a crash artifact. A record
// without a result payload counts as malformed. Each result's Method
// and Dataset are set from its record. Records are written with
// ckpt.Open and Writer.Append.
func LoadCheckpoint(path string) ([]CellRecord, error) {
	records, err := ckpt.Load(path, func(rec *CellRecord) bool { return rec.Result != nil })
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	for _, rec := range records {
		rec.Result.Method, rec.Result.Dataset = rec.Method, rec.Dataset
	}
	return records, nil
}
