package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"ascc/internal/cmp"
	"ascc/internal/trace"
)

// digestRefs is how many references of each stream TestStreamDigests pins.
const digestRefs = 1 << 20

// streamDigests pins the SHA-256 of the first digestRefs references of
// every stream the experiments synthesise, hashed as Addr (8 bytes), Write
// (1 byte) and Gap (4 bytes), little-endian. The small-budget goldens read
// only a short prefix of each stream; these pins hold the whole set-up
// path — component synthesis, the write draws, the gap dithering and the
// 1/8 sampled view — to the exact stream over a million references.
var streamDigests = map[string]string{
	"spec/401/scale8":             "d72bc803de47fac4f59c9d96f0c204c5c4ce4e989540844317b759579cd43927",
	"spec/429/scale8":             "095b319bf7a16883cf611833754cc9d1bef7b06af588c0636373dcce70dc291e",
	"spec/433/scale8":             "e9e050512519c88c5869f84348d80c503428a98e7acd335ff08e054338fc5ea8",
	"spec/444/scale8":             "c0f85f841f2fb4915304598a8f7b3a68f3feff93a00059e46651830903c225b5",
	"spec/445/scale8":             "313798da7384dd4e2d126f41a21f879cff5b8c6061983a80735da254fe485277",
	"spec/450/scale8":             "49b51ca611c335073198706f53f46caca7756a0004d2a3abf8d640397ab9c495",
	"spec/456/scale8":             "6baecccda1d4b413ec9f8acdde6c870b229afdacad744c82e5828aa4961ae28c",
	"spec/458/scale8":             "6d64f9d589de031a54b5d5fc0e3a55a5b8052c757cd151396036e8e553bc186a",
	"spec/462/scale8":             "2c7bbf350f8208837e4d9487d7ef58253ad951bbd488abbb2c802f0e22b7e76d",
	"spec/470/scale8":             "fc76d1be15e9941894d106da2eb5da596d924698197c4562dd96e778a3b62a1a",
	"spec/471/scale8":             "87bad66764ae7bc245f13f66d631266837c68386e7c5395d60c97c9550395e9e",
	"spec/473/scale8":             "302345f61eab27e2716057f6638a30d4e88f97bd6cc0893d93e448adb74811bd",
	"spec/482/scale8":             "0aa1de794bed131c491af75668503157e1ee5b5f439fb49d03611b8d23e143fe",
	"spec/401/scale1":             "8217130ab2cffae131dfd47f64c36d65c2f337603bae14761d4faf5f485bedd9",
	"spec/429/scale1":             "b73c8e38a18905eea3a5193ed77752730a2f0b14d51f28c59dc0e93858c05baa",
	"spec/433/scale1":             "a3afa7a71625c9e7f53e607ce63fd4f406145a70b9cbe1dd99855b86ab8ddc6f",
	"spec/444/scale1":             "0ed52f70991bc6c88e34e9697f8a94cfcc2237ff69d670f39da0bc5bff1b505d",
	"spec/445/scale1":             "669d7f56abd64230b9eb9bb8c94ba92c175f96c33710f47095964d9953048e9d",
	"spec/450/scale1":             "8d37cc81b21f15490ba0ec330c855a0ffbfcdabe7a87c94d59202457f2bc160e",
	"spec/456/scale1":             "f50650ec96b89c08c1cba476212bd1b17f622991907006fc99b3bdb8f97294ed",
	"spec/458/scale1":             "0f05d6ed9aee6cb2ddf8aede34796865158ca9adbe0bcabbdcf037ed147d98ff",
	"spec/462/scale1":             "57a740515c3ad258ff6a0d7515dba6954125db38e901d09650f87982f949c440",
	"spec/470/scale1":             "a7edc5d7d21e5ba1630d9b06509a7668e480b8dfa1c83cb3327d87907588fbd3",
	"spec/471/scale1":             "c5f5e96b6b78300875c18bed91415be2deac203e394cffbf97fd49acf51a4d28",
	"spec/473/scale1":             "a94c5fa8e1619fcfd27df2df71f82e4943d994293cf89f0ef7c1e499d2fc9d28",
	"spec/482/scale1":             "ca80d1f712a3bba7e858ca40e60785ab86b3f180ae8965085254f4872c14a268",
	"mt/ocean/t0":                 "8b1b6ddfdb079934930db5ff8e8206dc2c694ed15b7ba3e12ed909686ec9c7ef",
	"mt/ocean/t1":                 "b146cee1eed73eb1e54959e5c0a2a3c8e9f6d9fe6bd3b84ff9eb673cb40386ec",
	"mt/ocean/t2":                 "8762789229595e5b8bd38ca1b354e50b55d9caef495480e426becc92336066bf",
	"mt/ocean/t3":                 "c868ee67f74f4acdb74b7dcd139d5954a8594df8c56a291c6200b5ccf0df828a",
	"mt/lu/t0":                    "1b31813fd8f2f4067312220cd8d25c9428306651ed57eeed593ee2713bcd6469",
	"mt/lu/t1":                    "9a45b65062d047288e1e584fdf56d31c0371fe69c1f000f7465e586b9d11f706",
	"mt/lu/t2":                    "ada30549cd31ca7eb7aa37da6d390e9c5617c1df42c805b567a79d343c18d002",
	"mt/lu/t3":                    "f8dbf580c899b97a4ec7f30dbe7d832c7820ba92105d0cac1bceb09b7cfca45b",
	"mt/barnes/t0":                "eed55bc47a0b6eeb08b09a1d338bc72b6e578aea2a685d3d3f0f3c113941702d",
	"mt/barnes/t1":                "15d4504a4effe4814147fcb275d8dc60056e9b64aa47058846a7f4c8b9ba9b90",
	"mt/barnes/t2":                "7f521c055b738a5013e578fff18f597939f325acf97401c75d25add4fd2f0471",
	"mt/barnes/t3":                "865cfb7ea2e608073d2d7bf4f7d94c8f1bcfed4e0a789e59d1885157ee4a239e",
	"mt/streamcluster/t0":         "38b347cde9813511d97cdf50c4cbcfb53294006137450be2304177de03f53432",
	"mt/streamcluster/t1":         "40410ac3332ba6a7b891cd56c7c84741a85cee382d225fde147a0e0bdd32f122",
	"mt/streamcluster/t2":         "ab33b6c07b2df5111ab9167e6d4e279a6e6eb293ea473ff58679869c2cb78670",
	"mt/streamcluster/t3":         "d7364c8f28fc6d8337ac023803254f892f1d44700f46301d7bcd4ac5471a3105",
	"mt/radix/t0":                 "b13adf1614d65463504faebf3384340d0cf148340ad3dc23facb831ea0019592",
	"mt/radix/t1":                 "3c2af2afd1947b1f3f56aa69d45ef744ac7e5e0de4f7f94b439d07f512b2318e",
	"mt/radix/t2":                 "3a7c1dd13f20175d995fd690e625cf3fe189367aceeda358edf0657cc758e807",
	"mt/radix/t3":                 "8e5be5e612f947f8b8609f32ff40922d957293bc8fb982d445e8c7b4064412eb",
	"mt/canneal/t0":               "c23f2bbc14f002dbc06f526f33409a8bb747612c89efd8914aae6b0e0b7b9326",
	"mt/canneal/t1":               "1d8a5a04d74b2cc37882f5ffdcf73af95d20efe138d26f897a56f41e4d73ffb5",
	"mt/canneal/t2":               "2aa0bb0d7ce675937a342cf856fd9d84e974b5907ef073346f1df83e338eb68e",
	"mt/canneal/t3":               "371641ca69b98eef6dc1c0d1abce4d704c0b693ea8f56db9102401f1b389db88",
	"view8/445+401+444+456/slot0": "593a4acbe9b6fa7cde3b3896f4d4e43585de7790b68b7afa51abe73cdc4b55ef",
	"view8/445+401+444+456/slot1": "f539bb560f1479fc112cdc1b2ce6f0efe0f16bbda8eb3a6b3f14c802e4ca5e3c",
	"view8/445+401+444+456/slot2": "c73b5733abc14c621c5da8dc43c7ae2e5b991eb60d689dccf2cca2480bd7d2a4",
	"view8/445+401+444+456/slot3": "b912f27c592c377a0ae5d23b50a2176b70a558685a47fb8e05826dba38b3c85d",
}

// streamDigest hashes the first n references g produces.
func streamDigest(g trace.Generator, n int) string {
	h := sha256.New()
	buf := make([]trace.Ref, 4096)
	raw := make([]byte, 13*len(buf))
	for n > 0 {
		b := buf[:min(n, len(buf))]
		g.NextBatch(b)
		for i, r := range b {
			p := raw[13*i:]
			binary.LittleEndian.PutUint64(p, r.Addr)
			p[8] = 0
			if r.Write {
				p[8] = 1
			}
			binary.LittleEndian.PutUint32(p[9:], uint32(r.Gap))
		}
		h.Write(raw[:13*len(b)])
		n -= len(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestStreams returns every pinned stream, freshly built, by name: each
// SPEC profile as a single-app mix's slot 0 at scales 8 and 1, each MT
// profile's four threads at scale 8, and the 1/8 sampled view of the first
// 4-app mix's four slots on the default 4-core machine.
func digestStreams(t *testing.T) (names []string, gens map[string]trace.Generator) {
	gens = map[string]trace.Generator{}
	add := func(name string, g trace.Generator) {
		names = append(names, name)
		gens[name] = g
	}
	for _, scale := range []int{8, 1} {
		for _, p := range Profiles() {
			gs, _, err := BuildMix([]int{p.ID}, 1, scale)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("spec/%d/scale%d", p.ID, scale), gs[0])
		}
	}
	for _, p := range MTProfiles() {
		for i, g := range p.NewGenerators(4, 1, 8) {
			add(fmt.Sprintf("mt/%s/t%d", p.Name, i), g)
		}
	}
	views := viewStreams(t, false)
	for _, name := range viewNames() {
		add(name, views[name])
	}
	return names, gens
}

// viewNames lists the pinned sampled views' names in slot order.
func viewNames() []string {
	mix := FourAppMixes()[0]
	names := make([]string, len(mix))
	for i := range names {
		names[i] = fmt.Sprintf("view8/%s/slot%d", MixName(mix), i)
	}
	return names
}

// viewStreams builds the 1/8 sampled view of the first 4-app mix's four
// slots on the default 4-core machine, by name: over the live generators,
// or (packed) over replayers of arenas wrapping them.
func viewStreams(t *testing.T, packed bool) map[string]trace.Generator {
	params := cmp.DefaultParams(4, 8)
	params.SampleDen = 8
	spec, err := params.SampleSpec()
	if err != nil {
		t.Fatal(err)
	}
	gs, _, err := BuildMix(FourAppMixes()[0], 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]trace.Generator{}
	for i, name := range viewNames() {
		var src trace.Generator = gs[i]
		if packed {
			src = trace.NewArena(src).NewReplayer()
		}
		views[name] = spec.View(src)
	}
	return views
}

// TestStreamDigests pins the first million references of every stream
// (see streamDigests). A change to a generator, a component, the sample
// rule or the view that alters any reference fails here, naming the
// stream. The sampled views are checked over live generators and over
// packed arenas alike.
func TestStreamDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesises ~80 M references")
	}
	names, gens := digestStreams(t)
	for _, name := range names {
		got := streamDigest(gens[name], digestRefs)
		if want := streamDigests[name]; got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
	if len(streamDigests) != len(names) {
		t.Errorf("%d pinned digests, %d streams", len(streamDigests), len(names))
	}
	// The views again, filtered from packed parent arenas — the path every
	// cached sub-arena takes — must match the same pins.
	for name, g := range viewStreams(t, true) {
		if got, want := streamDigest(g, digestRefs), streamDigests[name]; got != want {
			t.Errorf("%s over a packed arena: digest %s, want %s", name, got, want)
		}
	}
}
