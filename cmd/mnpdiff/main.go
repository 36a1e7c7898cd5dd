// Command mnpdiff builds, inspects and applies the block-level image
// patches used for difference-based reprogramming over MNP:
//
//	mnpdiff diff v1.bin v2.bin patch.mnp    # create a patch
//	mnpdiff apply v1.bin patch.mnp out.bin  # reconstruct v2
//	mnpdiff inspect patch.mnp               # show patch composition
package main

import (
	"flag"
	"fmt"
	"os"

	"mnp/internal/imgdiff"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnpdiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mnpdiff", flag.ContinueOnError)
	blockSize := fs.Int("block", imgdiff.DefaultBlockSize, "diff block size in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: mnpdiff [-block N] diff|apply|inspect <files…>")
	}
	switch rest[0] {
	case "diff":
		if len(rest) != 4 {
			return fmt.Errorf("usage: mnpdiff diff <old> <new> <patch>")
		}
		return diffCmd(rest[1], rest[2], rest[3], *blockSize)
	case "apply":
		if len(rest) != 4 {
			return fmt.Errorf("usage: mnpdiff apply <old> <patch> <out>")
		}
		return applyCmd(rest[1], rest[2], rest[3])
	case "inspect":
		if len(rest) != 2 {
			return fmt.Errorf("usage: mnpdiff inspect <patch>")
		}
		return inspectCmd(rest[1])
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

func diffCmd(oldPath, newPath, patchPath string, blockSize int) error {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return err
	}
	patch, err := imgdiff.Diff(oldData, newData, blockSize)
	if err != nil {
		return err
	}
	if err := os.WriteFile(patchPath, patch, 0o644); err != nil {
		return err
	}
	st, err := imgdiff.Inspect(patch)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d bytes (%.1f%% of the new image)\n",
		patchPath, st.PatchSize, 100*st.Ratio())
	return nil
}

func applyCmd(oldPath, patchPath, outPath string) error {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	patch, err := os.ReadFile(patchPath)
	if err != nil {
		return err
	}
	newData, err := imgdiff.Apply(oldData, patch)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, newData, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d bytes\n", outPath, len(newData))
	return nil
}

func inspectCmd(patchPath string) error {
	patch, err := os.ReadFile(patchPath)
	if err != nil {
		return err
	}
	st, err := imgdiff.Inspect(patch)
	if err != nil {
		return err
	}
	fmt.Printf("block size:    %d bytes\n", st.BlockSize)
	fmt.Printf("base image:    %d bytes\n", st.OldSize)
	fmt.Printf("new image:     %d bytes\n", st.NewSize)
	fmt.Printf("patch:         %d bytes (%.1f%% of new)\n", st.PatchSize, 100*st.Ratio())
	fmt.Printf("copy ops:      %d (%d bytes reused)\n", st.CopyOps, st.CopiedBytes)
	fmt.Printf("literal ops:   %d (%d bytes shipped)\n", st.DataOps, st.LiteralBytes)
	return nil
}
