#!/bin/sh
# Runs the cache-kernel benchmarks (packed kernel vs the frozen reference
# kernel in internal/cachesim/refmodel, i.e. the pre-rewrite implementation),
# the burst-engine A/B (the run-to-event engine vs the frozen per-reference
# loop in internal/cmp/refstep_test.go), the persistent arena-store A/B
# (live stream synthesis vs mmap'd store replay; add STORE_EXPALL=1 for
# interleaved cold-vs-warm asccbench -exp all wall-clock pairs with CSV
# identity checks), the set-sampled fast-path A/B (sampled 1/8 vs
# full-fidelity end-to-end simulation plus the filter/replay stream halves;
# add SAMPLE_EXPALL=1 for interleaved full-vs-sampled asccbench -exp all
# wall-clock pairs with the `sampling` accuracy columns recorded), the
# coherence-probe scaleout A/B (broadcast scan vs set-sharded directory at
# 4/16/64 cores) and the end-to-end simulator benchmark, then writes
# BENCH_kernel.json with the headline numbers and appends one summary
# record (commit, date, expall median, kernel ns/block) to the
# BENCH_history.json array.
# Usage: [STORE_EXPALL=1] [SAMPLE_EXPALL=1] scripts/bench_kernel.sh [output.json]
set -eu

out=${1:-BENCH_kernel.json}
go=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== kernel-level: packed vs reference (internal/cachesim) =="
$go test ./internal/cachesim -run '^$' -bench 'BenchmarkKernelThroughput' \
	-benchtime 2s -benchmem | tee "$tmp/kernel.txt"

echo "== stream: live generation vs packed arena replay (internal/trace) =="
$go test ./internal/trace -run '^$' -bench 'BenchmarkStreamThroughput' \
	-benchtime 2s -benchmem | tee "$tmp/stream.txt"

echo "== store: live synthesis vs persistent-store replay (internal/trace/store) =="
# The arena-store A/B (DESIGN.md 14): live workload-model generation — the
# cost every cold process pays per stream — against pure decode over a
# store-loaded mmap'd arena, plus the load itself (open + map + checksum +
# structural walk) amortised over the refs it unlocks.
$go test ./internal/trace/store -run '^$' -bench 'BenchmarkStoreThroughput' \
	-benchtime 2s -benchmem | tee "$tmp/store.txt"

echo "== burst: run-to-event engine vs frozen per-ref stepping (internal/cmp) =="
# The phase pair is the run-to-event rewrite's honest A/B: the engine (one
# descent per L1 miss under the burst kernel) against the pre-burst loop it
# replaced, frozen verbatim in refstep_test.go. One `go test` process runs
# both back to back; five rounds interleave the pairs so slow drift on a
# noisy host hits both sides, and the awk below takes per-side medians.
: >"$tmp/burst.txt"
for round in 1 2 3 4 5; do
	$go test ./internal/cmp -run '^$' -bench 'BenchmarkPhase(Burst|RefStep)$' \
		-benchtime 5x | tee -a "$tmp/burst.txt"
done

# Optional end-to-end wall-clock A/B for the persistent store: five
# interleaved cold/warm `asccbench -exp all` pairs against a private store
# root. Each round wipes the root, runs cold (write-behind populates it),
# then warm (streams replay from mmap'd files), and requires the CSV
# output of all runs — including a store-off reference — byte-identical.
# The committed BENCH_kernel.json was generated with STORE_EXPALL=1.
if [ "${STORE_EXPALL:-0}" = "1" ]; then
	echo "== store: asccbench -exp all cold vs warm wall-clock pairs (STORE_EXPALL=1) =="
	[ -x "$tmp/asccbench" ] || $go build -o "$tmp/asccbench" ./cmd/asccbench
	storedir="$tmp/arena-store"
	"$tmp/asccbench" -exp all -format csv >"$tmp/store-off.csv"
	: >"$tmp/storepairs.txt"
	for round in 1 2 3 4 5; do
		for side in cold warm; do
			[ "$side" = cold ] && rm -rf "$storedir"
			t0=$(date +%s.%N)
			"$tmp/asccbench" -exp all -format csv -arena-store="$storedir" >"$tmp/store-$side.csv"
			t1=$(date +%s.%N)
			awk -v s="$side" -v a="$t0" -v b="$t1" \
				'BEGIN { printf "%s %.3f\n", s, b - a }' | tee -a "$tmp/storepairs.txt"
			if ! cmp -s "$tmp/store-off.csv" "$tmp/store-$side.csv"; then
				echo "FATAL: $side-store -exp all CSV diverged from store-off" >&2
				exit 1
			fi
		done
	done
	awk '
	function median(a, n,    i, j, t) {
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
			a[j+1] = t
		}
		if (n % 2) return a[(n+1)/2]
		return (a[n/2] + a[n/2+1]) / 2
	}
	$1 == "cold" { cold[++nc] = $2 }
	$1 == "warm" { warm[++nw] = $2 }
	END {
		c = median(cold, nc); w = median(warm, nw)
		printf "\"expall_pairs\": %d\n", nc
		printf "\"expall_csv_identical\": true\n"
		printf "\"expall_cold_s\": %.3f\n", c
		printf "\"expall_warm_s\": %.3f\n", w
		printf "\"expall_warm_speedup_vs_cold\": %.3f\n", c / w
	}' "$tmp/storepairs.txt" >"$tmp/storeexpall.medians"
fi

echo "== sampling: filtered-stream halves, one-time filter vs sub-arena replay (internal/trace) =="
# The set-sampled fast path's stream-layer halves (DESIGN.md 16): "filter"
# is the one-time derivation of a 1/8 sub-arena from a packed full arena
# (decode + residue test + gap merge + set rewrite), "replay" the straight
# decode every subsequent sampled run pays, where each reference stands for
# ~8 source references.
$go test ./internal/trace -run '^$' -bench 'BenchmarkSampledStream' \
	-benchtime 2s | tee "$tmp/samplestream.txt"

echo "== sampling: sampled 1/8 vs full end-to-end simulation =="
# The fast path's per-run A/B: the end-to-end 4-core AVGCC simulation on
# the set-sampled fast path (BenchmarkSampledThroughput, -sample 1/8
# semantics) against the identical full-fidelity run
# (BenchmarkSimulatorThroughput), interleaved per round. instr/s counts
# retired full-stream instructions on both sides — the sampled stream
# carries the skipped references' instruction gaps — so the instr/s ratio
# is the fast path's honest per-run speedup.
: >"$tmp/samplingpair.txt"
for round in 1 2 3 4 5; do
	$go test . -run '^$' -bench 'Benchmark(Simulator|Sampled)Throughput$' \
		-benchtime 20x | tee -a "$tmp/samplingpair.txt"
done

# Optional end-to-end wall-clock A/B over the full experiment sweep: five
# interleaved `asccbench -exp all` pairs, full fidelity vs -sample 1/8,
# both arms against the same prewarmed arena store so the comparison
# isolates the fast path rather than stream synthesis. Every full-arm CSV
# must be byte-identical to the full reference (the sampled arm estimates,
# so only its own determinism across rounds is demanded), and the run
# records the `sampling` experiment's accuracy columns alongside the
# wall-clock medians. Only runs under SAMPLE_EXPALL=1; the committed
# BENCH_kernel.json was generated with it enabled.
if [ "${SAMPLE_EXPALL:-0}" = "1" ]; then
	echo "== sampling: asccbench -exp all full vs -sample 1/8 wall-clock pairs (SAMPLE_EXPALL=1) =="
	[ -x "$tmp/asccbench" ] || $go build -o "$tmp/asccbench" ./cmd/asccbench
	sampledir="$tmp/sample-store"
	"$tmp/asccbench" -exp all -format csv -arena-store="$sampledir" >"$tmp/sample-fullref.csv"
	"$tmp/asccbench" -exp all -sample 1/8 -format csv -arena-store="$sampledir" >"$tmp/sample-sampref.csv"
	: >"$tmp/samplepairs.txt"
	for round in 1 2 3 4 5; do
		for side in full sampled; do
			[ "$side" = full ] && sampleflags="" || sampleflags="-sample 1/8"
			t0=$(date +%s.%N)
			# shellcheck disable=SC2086
			"$tmp/asccbench" -exp all $sampleflags -format csv -arena-store="$sampledir" >"$tmp/sample-$side.csv"
			t1=$(date +%s.%N)
			awk -v s="$side" -v a="$t0" -v b="$t1" \
				'BEGIN { printf "%s %.3f\n", s, b - a }' | tee -a "$tmp/samplepairs.txt"
			[ "$side" = full ] && ref="$tmp/sample-fullref.csv" || ref="$tmp/sample-sampref.csv"
			if ! cmp -s "$ref" "$tmp/sample-$side.csv"; then
				echo "FATAL: $side -exp all CSV diverged from its reference run" >&2
				exit 1
			fi
		done
	done
	"$tmp/asccbench" -exp sampling -format csv -arena-store="$sampledir" >"$tmp/sample-acc.csv"
	{
		awk '
		function median(a, n,    i, j, t) {
			for (i = 2; i <= n; i++) {
				t = a[i]
				for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
				a[j+1] = t
			}
			if (n % 2) return a[(n+1)/2]
			return (a[n/2] + a[n/2+1]) / 2
		}
		$1 == "full"    { fu[++nf] = $2 }
		$1 == "sampled" { sa[++ns] = $2 }
		END {
			f = median(fu, nf); s = median(sa, ns)
			printf "\"expall_pairs\": %d\n", nf
			printf "\"expall_csv_deterministic\": true\n"
			printf "\"expall_full_s\": %.3f\n", f
			printf "\"expall_sampled_s\": %.3f\n", s
			printf "\"expall_speedup_vs_full\": %.3f\n", f / s
		}' "$tmp/samplepairs.txt"
		# The accuracy table's error columns, pinned next to the speedup they
		# buy: CSV rows are sample,policy,CPI err% mean,CPI err% max,WS impr
		# full,WS impr sampled,WS err pp mean (comment lines start with #).
		awk -F, 'NR > 1 && $1 !~ /^#/ {
			s = $1; gsub("/", "of", s)
			printf "\"accuracy_%s_%s_cpi_err_pct_mean\": %s\n", s, $2, $3
			printf "\"accuracy_%s_%s_cpi_err_pct_max\": %s\n", s, $2, $4
			printf "\"accuracy_%s_%s_ws_err_pp_mean\": %s\n", s, $2, $7
		}' "$tmp/sample-acc.csv"
	} >"$tmp/sampleexpall.medians"
fi

echo "== scaleout: coherence probe, broadcast vs directory at 4/16/64 cores =="
# The directory A/B (DESIGN.md 13): one HolderMask query — the primitive
# under every miss, eviction and upgrade — against the O(cores) broadcast
# scan it replaced, at each group width. Five rounds, per-cell medians. The
# acceptance bar: the 64-core directory probe costs at most 2x the 4-core
# broadcast scan (i.e. probe cost stays flat as the machine grows).
: >"$tmp/scaleout.txt"
for round in 1 2 3 4 5; do
	$go test ./internal/cachesim -run '^$' -bench 'BenchmarkCoherenceProbe' \
		-benchtime 2000000x | tee -a "$tmp/scaleout.txt"
done

echo "== end-to-end: 4-core AVGCC simulation (BenchmarkSimulatorThroughput) =="
$go test . -run '^$' -bench 'BenchmarkSimulatorThroughput' \
	-benchtime 10x -benchmem | tee "$tmp/e2e.txt"

awk '
/BenchmarkKernelThroughput\/packed/ { pns=$3; pblk=$5 }
/BenchmarkKernelThroughput\/ref/    { rns=$3; rblk=$5 }
/packed.*allocs\/op/ { for (i=1;i<=NF;i++) if ($i=="allocs/op") pal=$(i-1) }
END {
	printf "  \"kernel\": {\n"
	printf "    \"geometry\": \"256KiB 8-way 64B lines (512 sets), ~75%% hit demand stream\",\n"
	printf "    \"packed_ns_per_block\": %s,\n", pns
	printf "    \"packed_blocks_per_sec\": %s,\n", pblk
	printf "    \"packed_allocs_per_op\": %s,\n", pal
	printf "    \"ref_ns_per_block\": %s,\n", rns
	printf "    \"ref_blocks_per_sec\": %s,\n", rblk
	printf "    \"speedup_vs_ref\": %.2f\n", rns / pns
	printf "  },\n"
}' "$tmp/kernel.txt" >"$tmp/kernel.json"

awk '
/BenchmarkStreamThroughput\/live/ {
	lns=$3
	for (i=1; i<=NF; i++) if ($i=="refs/s") lrefs=$(i-1)
}
/BenchmarkStreamThroughput\/replay/ {
	rns=$3
	for (i=1; i<=NF; i++) {
		if ($i=="refs/s") rrefs=$(i-1)
		if ($i=="allocs/op") ral=$(i-1)
	}
}
END {
	printf "  \"replay\": {\n"
	printf "    \"stream\": \"composite Zipf+walk+hot mixture, 256-reference batches\",\n"
	printf "    \"live_refs_per_sec\": %s,\n", lrefs
	printf "    \"replay_refs_per_sec\": %s,\n", rrefs
	printf "    \"replay_allocs_per_op\": %s,\n", ral
	printf "    \"speedup_vs_live\": %.2f\n", lns / rns
	printf "  },\n"
}' "$tmp/stream.txt" >"$tmp/stream.json"

awk -v expall="$tmp/storeexpall.medians" '
/BenchmarkStoreThroughput\/live/ {
	lns=$3
	for (i=1; i<=NF; i++) if ($i=="refs/s") lrefs=$(i-1)
}
/BenchmarkStoreThroughput\/store-replay/ {
	rns=$3
	for (i=1; i<=NF; i++) {
		if ($i=="refs/s") rrefs=$(i-1)
		if ($i=="allocs/op") ral=$(i-1)
	}
}
/BenchmarkStoreThroughput\/load/ {
	for (i=1; i<=NF; i++) if ($i=="refs/s") ldrefs=$(i-1)
}
END {
	printf "  \"store\": {\n"
	printf "    \"stream\": \"composite Zipf+walk+hot mixture, 256-reference batches, 2M-ref mmap-backed store file\",\n"
	printf "    \"live_refs_per_sec\": %s,\n", lrefs
	printf "    \"store_replay_refs_per_sec\": %s,\n", rrefs
	printf "    \"store_replay_allocs_per_op\": %s,\n", ral
	printf "    \"load_validate_refs_per_sec\": %s,\n", ldrefs
	printf "    \"speedup_vs_live\": %.2f", lns / rns
	while ((getline line < expall) > 0) printf ",\n    %s", line
	printf "\n  },\n"
}' "$tmp/store.txt" >"$tmp/store.json"

awk '
function median(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
		a[j+1] = t
	}
	if (n % 2) return a[(n+1)/2]
	return (a[n/2] + a[n/2+1]) / 2
}
/BenchmarkPhaseBurst/ {
	bns[++nb] = $3
	for (i = 1; i <= NF; i++) if ($i == "instr/s") bis[nb] = $(i-1)
}
/BenchmarkPhaseRefStep/ {
	rns[++nr] = $3
	for (i = 1; i <= NF; i++) if ($i == "instr/s") ris[nr] = $(i-1)
}
END {
	b = median(bns, nb); r = median(rns, nr)
	printf "  \"burst\": {\n"
	printf "    \"workload\": \"4-core AVGCC phase stepping, 1M instructions per core\",\n"
	printf "    \"rounds\": %d,\n", nb
	printf "    \"burst_ns_per_run\": %d,\n", b
	printf "    \"burst_instr_per_sec\": %d,\n", median(bis, nb)
	printf "    \"refstep_ns_per_run\": %d,\n", r
	printf "    \"refstep_instr_per_sec\": %d,\n", median(ris, nr)
	printf "    \"speedup_vs_refstep\": %.2f\n", r / b
	printf "  },\n"
}' "$tmp/burst.txt" >"$tmp/burst.json"

awk '
function median(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
		a[j+1] = t
	}
	if (n % 2) return a[(n+1)/2]
	return (a[n/2] + a[n/2+1]) / 2
}
/BenchmarkCoherenceProbe\// {
	split($1, parts, "/"); sub(/-[0-9]+$/, "", parts[2])
	cell = parts[2]
	v[cell, ++n[cell]] = $3
}
END {
	printf "  \"scaleout\": {\n"
	printf "    \"workload\": \"one HolderMask coherence probe over a 4096-block resident mix, per-cell medians\",\n"
	printf "    \"rounds\": %d,\n", n["directory-64cores"]
	first = 1
	for (cores = 4; cores <= 64; cores *= 4) {
		for (mi = 1; mi <= 2; mi++) {
			mode = (mi == 1) ? "broadcast" : "directory"
			cell = mode "-" cores "cores"
			m = n[cell]
			for (i = 1; i <= m; i++) tmp[i] = v[cell, i]
			printf "    \"%s_%dcores_ns_per_probe\": %.2f,\n", mode, cores, median(tmp, m)
		}
	}
	for (i = 1; i <= n["broadcast-4cores"]; i++) tmp[i] = v["broadcast-4cores", i]
	b4 = median(tmp, n["broadcast-4cores"])
	for (i = 1; i <= n["directory-64cores"]; i++) tmp[i] = v["directory-64cores", i]
	d64 = median(tmp, n["directory-64cores"])
	printf "    \"dir64_vs_broadcast4_ratio\": %.2f\n", d64 / b4
	printf "  },\n"
}' "$tmp/scaleout.txt" >"$tmp/scaleout.json"

awk -v expall="$tmp/sampleexpall.medians" '
function median(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
		a[j+1] = t
	}
	if (n % 2) return a[(n+1)/2]
	return (a[n/2] + a[n/2+1]) / 2
}
/BenchmarkSampledStream\/filter/ {
	for (i = 1; i <= NF; i++) if ($i == "refs/s") flt = $(i-1)
}
/BenchmarkSampledStream\/replay/ {
	for (i = 1; i <= NF; i++) if ($i == "refs/s") rep = $(i-1)
}
/BenchmarkSimulatorThroughput/ {
	for (i = 1; i <= NF; i++) if ($i == "instr/s") fi[++nf] = $(i-1)
}
/BenchmarkSampledThroughput/ {
	for (i = 1; i <= NF; i++) if ($i == "instr/s") si[++ns] = $(i-1)
}
END {
	f = median(fi, nf); s = median(si, ns)
	printf "  \"sampling\": {\n"
	printf "    \"workload\": \"4-core AVGCC, 1M instructions per core, set-sampled 1/8 (pre-filtered sub-arena, scale-8 geometry) vs full fidelity; instr/s counts retired full-stream instructions on both sides\",\n"
	printf "    \"rounds\": %d,\n", nf
	printf "    \"filter_refs_per_sec\": %s,\n", flt
	printf "    \"sampled_replay_refs_per_sec\": %s,\n", rep
	printf "    \"full_instr_per_sec\": %d,\n", f
	printf "    \"sampled_instr_per_sec\": %d,\n", s
	printf "    \"run_speedup_vs_full\": %.2f", s / f
	while ((getline line < expall) > 0) printf ",\n    %s", line
	printf "\n  },\n"
}' "$tmp/samplestream.txt" "$tmp/samplingpair.txt" >"$tmp/sampling.json"

awk '
/BenchmarkSimulatorThroughput/ {
	ns=$3
	for (i=1; i<=NF; i++) {
		if ($i=="blocks/s") blk=$(i-1)
		if ($i=="instr/s") ins=$(i-1)
		if ($i=="allocs/op") al=$(i-1)
	}
}
END {
	printf "  \"end_to_end\": {\n"
	printf "    \"workload\": \"4-core AVGCC, 1M instructions per core\",\n"
	printf "    \"ns_per_run\": %s,\n", ns
	printf "    \"blocks_per_sec\": %s,\n", blk
	printf "    \"instr_per_sec\": %s,\n", ins
	printf "    \"allocs_per_run\": %s\n", al
	printf "  }\n"
}' "$tmp/e2e.txt" >"$tmp/e2e.json"

{
	echo '{'
	echo '  "note": "generated by scripts/bench_kernel.sh (make bench-baseline); ref is the pre-rewrite kernel, kept verbatim as internal/cachesim/refmodel",'
	printf '  "go": "%s",\n' "$($go env GOVERSION)"
	cat "$tmp/kernel.json" "$tmp/stream.json" "$tmp/store.json" "$tmp/burst.json" "$tmp/sampling.json" "$tmp/scaleout.json" "$tmp/e2e.json"
	echo '}'
} >"$out"

echo "wrote $out:"
cat "$out"

# Append one summary record per run to the BENCH_history.json array (in the
# output file's directory), so kernel throughput and expall wall-clock can
# be tracked across commits without diffing whole BENCH_kernel.json files.
# The expall median is the warm-store -exp all median when STORE_EXPALL=1
# ran this invocation, else null.
hist=$(dirname "$out")/BENCH_history.json
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
kns=$(awk -F': ' '/"packed_ns_per_block"/ { gsub(/,/, "", $2); print $2 }' "$out")
emed=null
if [ -f "$tmp/storeexpall.medians" ]; then
	emed=$(awk -F': ' '/"expall_warm_s"/ { print $2 }' "$tmp/storeexpall.medians")
fi
smed=null
if [ -f "$tmp/sampleexpall.medians" ]; then
	smed=$(awk -F': ' '/"expall_sampled_s"/ { print $2 }' "$tmp/sampleexpall.medians")
fi
rec=$(printf '{"commit": "%s", "date": "%s", "expall_median_s": %s, "sampled_expall_median_s": %s, "kernel_ns_per_block": %s}' \
	"$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$emed" "$smed" "${kns:-null}")
{
	echo '['
	if [ -s "$hist" ]; then
		# One record per line between the brackets; re-terminate the old
		# last record with a comma before appending the new one.
		sed '1d;$d' "$hist" | sed '$ s/$/,/'
	fi
	printf '  %s\n' "$rec"
	echo ']'
} >"$tmp/hist.json"
mv "$tmp/hist.json" "$hist"
echo "appended to $hist: $rec"
