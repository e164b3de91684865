package cli

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// Report is one scenario's rendered-text cell for Reports.
type Report struct {
	// Name ("scenario/agent") and Family label the cell, its FAILED
	// line and its per-family counters.
	Name, Family string
	// Key derives the cell's content-addressed cache key.
	Key func() (string, error)
	// Render runs the scenario and renders its text.
	Render func(context.Context) (string, error)
}

// Reports runs one cell per report concurrently (-parallel at a time),
// each through the resolver, and prints them in argument order: sep
// between cells, a failed cell as failedFormat filled with its name and
// error. It counts every cell and every failure under its family, ends
// the environment with Finish and returns the exit code: 0 when every
// cell succeeded, harness.ExitPartial when some failed (their errors are
// already printed in place), harness.ExitFatal with the batch's error
// otherwise.
func (e *Env) Reports(reports []Report, sep, failedFormat string) (int, error) {
	cells := make([]runner.Cell[string], len(reports))
	for i, r := range reports {
		cells[i] = runner.Cell[string]{
			Key:   r.Name,
			Group: r.Family,
			Do: func(ctx context.Context) (string, error) {
				key, err := r.Key()
				if err != nil {
					return "", err
				}
				cell := resultcache.Cell{Key: key, Name: r.Name, Family: r.Family}
				return resultcache.Resolve(ctx, e.Resolver, cell, r.Render)
			},
		}
	}
	ropts := e.Runner
	ropts.EmitFailed = true
	results, err := runner.Run(context.Background(), ropts, cells)
	failed := 0
	for i, r := range results {
		if i > 0 {
			fmt.Print(sep)
		}
		e.Tel.Count(cells[i].Group, telemetry.MetricCells, 1)
		if r.Err != nil {
			failed++
			e.Tel.Count(cells[i].Group, telemetry.MetricCellsFailed, 1)
			fmt.Printf(failedFormat, r.Key, r.Err)
			continue
		}
		fmt.Print(r.Value)
	}
	e.Finish()
	if failed > 0 {
		// The batch error is the failed cells' first error, so the
		// partial exit subsumes it.
		e.Sum.Partial(failed, len(results))
		return harness.ExitPartial, nil
	}
	if err != nil {
		return harness.ExitFatal, err
	}
	return 0, nil
}
