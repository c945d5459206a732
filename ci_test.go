package ascc_test

import (
	"os"
	"regexp"
	"strconv"
	"testing"

	"ascc/internal/trace"
)

// TestCICacheKeyMatchesCodec: the CI workflow caches the persistent arena
// store under a key naming the packed codec version, so a codec change
// starts from an empty cache instead of restoring files that every load
// would reject and regenerate. Each such key must name
// trace.PackCodecVersion.
func TestCICacheKeyMatchesCodec(t *testing.T) {
	b, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	keys := regexp.MustCompile(`key:\s*arena-store-v(\d+)-`).FindAllStringSubmatch(string(b), -1)
	if len(keys) == 0 {
		t.Fatal("ci.yml has no arena-store-vN cache key")
	}
	for _, k := range keys {
		if k[1] != strconv.Itoa(trace.PackCodecVersion) {
			t.Errorf("ci.yml caches the arena store under %q, but trace.PackCodecVersion is %d", k[0], trace.PackCodecVersion)
		}
	}
}
