package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment describes where a run happened, printed with every report.
func environment(cfg config, segments int) []envLine {
	gomaxprocs := fmt.Sprint(runtime.GOMAXPROCS(0))
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		gomaxprocs += " (GOMAXPROCS=" + v + ")"
	}
	return []envLine{
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", gomaxprocs},
		{"clients", fmt.Sprint(cfg.clients)},
		{"segments", fmt.Sprint(segments)},
		{"cpu", cpuModel()},
		{"go", runtime.Version()},
		{"commit", commit()},
		{"data_fs", fsType(cfg.work)},
		{"flush_policy", "daemon default: group commit, fsync before ack"},
		{"seed", fmt.Sprint(cfg.seed)},
		{"seconds", fmt.Sprint(cfg.seconds)},
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the tree under test: the git commit when the checkout is a
// repository, and always a digest of its Go sources, so runs of the same
// code are recognisable in an export without git metadata.
func commit() string {
	sum := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			io.WriteString(sum, path)
			io.Copy(sum, f)
		}
		return nil
	})
	tree := "tree-sha256:" + hex.EncodeToString(sum.Sum(nil))[:16]
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return tree
	}
	return strings.TrimSpace(string(out)) + " " + tree
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
