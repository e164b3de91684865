package telemetry

import "os"

// WriteFiles writes r's trace to tracePath and its metrics registry to
// metricsPath (each skipped when empty) with their summary trailers,
// then the per-family digest. A nil recorder (telemetry disabled) is a
// no-op. The first write error is reported through sum and returned.
func WriteFiles(r *Recorder, sum *Summary, tracePath, metricsPath string) error {
	if r == nil {
		return nil
	}
	var firstErr error
	if tracePath != "" {
		if err := writeFileWith(tracePath, func(w *os.File) error {
			return r.WriteTrace(w, sum.Tool())
		}); err != nil {
			sum.Error(err)
			firstErr = err
		} else {
			sum.Printf("trace: %d events -> %s", r.EventCount(), tracePath)
		}
	}
	if metricsPath != "" {
		if err := writeFileWith(metricsPath, func(w *os.File) error {
			return r.WriteMetricsJSON(w, sum.Tool())
		}); err != nil {
			sum.Error(err)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			sum.Printf("metrics: -> %s", metricsPath)
		}
	}
	sum.Metrics(r)
	return firstErr
}

// writeFileWith creates path, runs fn on it, and returns the first
// error from fn or Close.
func writeFileWith(path string, fn func(*os.File) error) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
