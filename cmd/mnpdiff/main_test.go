package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiffApplyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	v1 := make([]byte, 4096)
	rng.Read(v1)
	v2 := append([]byte(nil), v1...)
	copy(v2[100:], []byte("edited"))

	oldP := writeTemp(t, dir, "v1.bin", v1)
	newP := writeTemp(t, dir, "v2.bin", v2)
	patchP := filepath.Join(dir, "patch.mnp")
	outP := filepath.Join(dir, "out.bin")

	if err := run([]string{"diff", oldP, newP, patchP}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"inspect", patchP}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"apply", oldP, patchP, outP}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("round trip mismatch")
	}
}

func TestBlockFlag(t *testing.T) {
	dir := t.TempDir()
	v1 := bytes.Repeat([]byte{1, 2, 3, 4}, 512)
	oldP := writeTemp(t, dir, "v1.bin", v1)
	patchP := filepath.Join(dir, "p.mnp")
	if err := run([]string{"-block", "64", "diff", oldP, oldP, patchP}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-block", "1", "diff", oldP, oldP, patchP}); err == nil {
		t.Fatal("invalid block size accepted")
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus"},
		{"diff", "a"},
		{"apply", "a"},
		{"inspect"},
		{"diff", "/nonexistent1", "/nonexistent2", "/tmp/x"},
		{"apply", "/nonexistent1", "/nonexistent2", "/tmp/x"},
		{"inspect", "/nonexistent"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// The profiling flags are gone: -block is the only flag.
	for _, flag := range []string{"-pprof", "-cpuprofile"} {
		err := run([]string{flag, "x", "inspect", "/nonexistent"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: err = %v, want the flag package's not-defined error", flag, err)
		}
	}
}
