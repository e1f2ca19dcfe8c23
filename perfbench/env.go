package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// envStamp records what a result was measured on. Two results are only
// comparable when every field except Commit agrees.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	CacheFS    string `json:"cache_fs"`
}

// stampEnv gathers the environment. root is the source tree the program
// was built from; workDir is where the cache directories live.
func stampEnv(root, workDir string) envStamp {
	return envStamp{
		Commit:     commitOf(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
		CacheFS:    fsType(workDir),
	}
}

// sameMachine reports how a and b differ in anything but the commit;
// an empty slice means their results may be compared.
func sameMachine(a, b envStamp) []string {
	var diff []string
	add := func(name, x, y string) {
		if x != y {
			diff = append(diff, fmt.Sprintf("%s: %q vs %q", name, x, y))
		}
	}
	add("go_version", a.GoVersion, b.GoVersion)
	add("gomaxprocs", fmt.Sprint(a.GOMAXPROCS), fmt.Sprint(b.GOMAXPROCS))
	add("nproc", fmt.Sprint(a.NumCPU), fmt.Sprint(b.NumCPU))
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("kernel", a.Kernel, b.Kernel)
	add("cache_fs", a.CacheFS, b.CacheFS)
	return diff
}

// commitOf names the source tree: the git commit when root is a clone,
// otherwise "src-" plus a hash of every Go source and go.mod under root,
// so an exported tree (which has no .git) still gets a stable identity.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(b))
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x9123683e: "btrfs", 0x2fc12fc1: "zfs",
		0x65735546: "fuse", 0x6969: "nfs", 0x61756673: "aufs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
