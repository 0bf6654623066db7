package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rocksmash/internal/flight"
)

// cmdDoctor runs the offline postmortem analyzer over a flight-recorder
// incident bundle and prints the ranked findings. path may be a single
// committed bundle directory (holding incident.json) or a flight directory
// of bundles, in which case the newest bundle is diagnosed.
func cmdDoctor(w io.Writer, path string) error {
	if path == "" {
		return errors.New("doctor: a bundle directory is required (mashctl doctor <bundle-dir>)")
	}
	if _, err := os.Stat(filepath.Join(path, "incident.json")); err != nil {
		// Not a bundle itself — maybe the flight dir holding them.
		metas, lerr := flight.ListBundles(path)
		if lerr != nil || len(metas) == 0 {
			return fmt.Errorf("doctor: %s is neither an incident bundle nor a directory of bundles", path)
		}
		path = metas[len(metas)-1].Dir
		fmt.Fprintf(w, "diagnosing newest of %d bundles: %s\n\n", len(metas), path)
	}
	diag, err := flight.Analyze(path)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, diag.Render())
	return err
}
