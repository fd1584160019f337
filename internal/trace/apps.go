// Built-in application profiles approximating the paper's workload suite
// (Table 2). The knob values below were calibrated against this
// repository's simulator so that base-processor IPC and power land near
// the paper's (see EXPERIMENTS.md, Table 2); they are not measurements of
// the original binaries.
package trace

import "fmt"

const (
	kb = 1 << 10
	mb = 1 << 20
)

// suite lists the nine applications' constructors in the paper's
// order — three multimedia codes, three SpecInt and three SpecFP
// applications — each under the name its profile carries.
var suite = []struct {
	name string
	make func() Profile
}{
	{"MPGdec", MPGdec}, {"MP3dec", MP3dec}, {"H263enc", H263enc},
	{"bzip2", Bzip2}, {"gzip", Gzip}, {"twolf", Twolf},
	{"art", Art}, {"equake", Equake}, {"ammp", Ammp},
}

// Apps returns the nine-application suite in the paper's order.
func Apps() []Profile {
	out := make([]Profile, len(suite))
	for i, app := range suite {
		out[i] = app.make()
	}
	return out
}

// AppByName returns the built-in profile with the given name, building
// only that one.
func AppByName(name string) (Profile, error) {
	for _, app := range suite {
		if app.name == name {
			return app.make(), nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown application %q", name)
}

// MPGdec models an MPEG-2 video decoder: very high ILP dataflow (IDCT,
// motion compensation) over frame buffers that largely fit in L1/L2, with
// highly predictable loop branches — the suite's highest IPC and power.
func MPGdec() Profile {
	return Profile{
		Name: "MPGdec", Class: "multimedia",
		PaperIPC: 3.2, PaperPowerW: 36.5,
		PhaseLen: 120_000,
		Phases: []Phase{
			{
				Name: "idct", Weight: 1.2,
				Mix:      Mix{IntAlu: 0.44, IntMul: 0.04, FPOp: 0.13, Load: 0.22, Store: 0.11, Branch: 0.06},
				DepGeomP: 0.06, NoDepFrac: 0.66,
				CodeBytes: 12 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 16 * kb, StrideBytes: 8, Weight: 0.55},
					{Kind: RandomInSet, WorkingSet: 8 * kb, Weight: 0.35},
					{Kind: Strided, WorkingSet: 96 * kb, StrideBytes: 8, Weight: 0.08},
				},
				PredictableFrac: 0.97, CallFrac: 0.05,
			},
			{
				Name: "mc", Weight: 0.8,
				Mix:      Mix{IntAlu: 0.47, IntMul: 0.03, FPOp: 0.08, Load: 0.25, Store: 0.11, Branch: 0.06},
				DepGeomP: 0.07, NoDepFrac: 0.64,
				CodeBytes: 10 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 24 * kb, StrideBytes: 8, Weight: 0.55},
					{Kind: RandomInSet, WorkingSet: 12 * kb, Weight: 0.33},
					{Kind: Strided, WorkingSet: 96 * kb, StrideBytes: 8, Weight: 0.08},
				},
				PredictableFrac: 0.97, CallFrac: 0.05,
			},
		},
	}
}

// MP3dec models an MP3 audio decoder: FP-heavy filterbank/IMDCT loops on
// small buffers, nearly perfect branch prediction.
func MP3dec() Profile {
	return Profile{
		Name: "MP3dec", Class: "multimedia",
		PaperIPC: 2.8, PaperPowerW: 34.7,
		PhaseLen: 100_000,
		Phases: []Phase{
			{
				Name: "filterbank", Weight: 1.0,
				Mix:      Mix{IntAlu: 0.31, IntMul: 0.03, FPOp: 0.27, Load: 0.23, Store: 0.09, Branch: 0.07},
				DepGeomP: 0.06, NoDepFrac: 0.64,
				CodeBytes: 10 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 12 * kb, StrideBytes: 8, Weight: 0.6},
					{Kind: RandomInSet, WorkingSet: 8 * kb, Weight: 0.33},
					{Kind: Strided, WorkingSet: 96 * kb, StrideBytes: 8, Weight: 0.05},
				},
				PredictableFrac: 0.97, CallFrac: 0.05,
			},
			{
				Name: "huffman", Weight: 0.5,
				Mix:      Mix{IntAlu: 0.53, IntMul: 0.02, FPOp: 0.05, Load: 0.23, Store: 0.07, Branch: 0.10},
				DepGeomP: 0.08, NoDepFrac: 0.60,
				CodeBytes: 14 * kb,
				Streams: []Stream{
					{Kind: RandomInSet, WorkingSet: 20 * kb, Weight: 0.7},
					{Kind: Strided, WorkingSet: 64 * kb, StrideBytes: 8, Weight: 0.3},
				},
				PredictableFrac: 0.92, CallFrac: 0.05,
			},
		},
	}
}

// H263enc models an H.263 video encoder: motion estimation with
// data-dependent branches (SAD early exits) lowers both predictability
// and ILP relative to the decoders.
func H263enc() Profile {
	return Profile{
		Name: "H263enc", Class: "multimedia",
		PaperIPC: 1.9, PaperPowerW: 30.8,
		PhaseLen: 120_000,
		Phases: []Phase{
			{
				Name: "motionest", Weight: 1.3,
				Mix:      Mix{IntAlu: 0.48, IntMul: 0.02, FPOp: 0.05, Load: 0.26, Store: 0.08, Branch: 0.11},
				DepGeomP: 0.12, NoDepFrac: 0.55,
				CodeBytes: 16 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 40 * kb, StrideBytes: 8, Weight: 0.55},
					{Kind: RandomInSet, WorkingSet: 16 * kb, Weight: 0.35},
					{Kind: Strided, WorkingSet: 128 * kb, StrideBytes: 8, Weight: 0.07},
				},
				PredictableFrac: 0.90, CallFrac: 0.04,
			},
			{
				Name: "dct", Weight: 0.7,
				Mix:      Mix{IntAlu: 0.41, IntMul: 0.04, FPOp: 0.13, Load: 0.24, Store: 0.10, Branch: 0.08},
				DepGeomP: 0.08, NoDepFrac: 0.60,
				CodeBytes: 10 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 20 * kb, StrideBytes: 8, Weight: 0.62},
					{Kind: RandomInSet, WorkingSet: 10 * kb, Weight: 0.3},
					{Kind: Strided, WorkingSet: 96 * kb, StrideBytes: 8, Weight: 0.06},
				},
				PredictableFrac: 0.96, CallFrac: 0.04,
			},
		},
	}
}

// Bzip2 models SPEC bzip2: integer compression with a mix of sorting
// (cache-resident, branchy) and move-to-front coding over an L2-sized
// block.
func Bzip2() Profile {
	return Profile{
		Name: "bzip2", Class: "SpecInt",
		PaperIPC: 1.7, PaperPowerW: 23.9,
		PhaseLen: 150_000,
		Phases: []Phase{
			{
				Name: "sort", Weight: 1.1,
				Mix:      Mix{IntAlu: 0.50, IntMul: 0.01, Load: 0.26, Store: 0.09, Branch: 0.14},
				DepGeomP: 0.14, NoDepFrac: 0.50,
				CodeBytes: 18 * kb,
				Streams: []Stream{
					{Kind: RandomInSet, WorkingSet: 24 * kb, Weight: 0.68},
					{Kind: RandomInSet, WorkingSet: 900 * kb, Weight: 0.02},
					{Kind: Strided, WorkingSet: 96 * kb, StrideBytes: 8, Weight: 0.30},
				},
				PredictableFrac: 0.88, CallFrac: 0.03,
			},
			{
				Name: "mtf", Weight: 0.9,
				Mix:      Mix{IntAlu: 0.53, Load: 0.25, Store: 0.10, Branch: 0.12},
				DepGeomP: 0.17, NoDepFrac: 0.47,
				CodeBytes: 12 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 128 * kb, StrideBytes: 8, Weight: 0.3},
					{Kind: RandomInSet, WorkingSet: 24 * kb, Weight: 0.6},
				},
				PredictableFrac: 0.90, CallFrac: 0.03,
			},
		},
	}
}

// Gzip models SPEC gzip: LZ77 string matching with hash-table lookups
// (mildly irregular) over a window that spills past L1.
func Gzip() Profile {
	return Profile{
		Name: "gzip", Class: "SpecInt",
		PaperIPC: 1.5, PaperPowerW: 23.4,
		PhaseLen: 140_000,
		Phases: []Phase{
			{
				Name: "deflate", Weight: 1.0,
				Mix:      Mix{IntAlu: 0.49, IntMul: 0.01, Load: 0.28, Store: 0.08, Branch: 0.14},
				DepGeomP: 0.15, NoDepFrac: 0.50,
				CodeBytes: 16 * kb,
				Streams: []Stream{
					{Kind: RandomInSet, WorkingSet: 28 * kb, Weight: 0.6},
					{Kind: Strided, WorkingSet: 96 * kb, StrideBytes: 8, Weight: 0.3},
					{Kind: RandomInSet, WorkingSet: 160 * kb, Weight: 0.04},
					{Kind: RandomInSet, WorkingSet: 2 * mb, Weight: 0.01},
				},
				PredictableFrac: 0.90, CallFrac: 0.03,
			},
			{
				Name: "longmatch", Weight: 0.6,
				Mix:      Mix{IntAlu: 0.46, Load: 0.31, Store: 0.07, Branch: 0.16},
				DepGeomP: 0.15, NoDepFrac: 0.50,
				CodeBytes: 12 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 128 * kb, StrideBytes: 8, Weight: 0.33},
					{Kind: RandomInSet, WorkingSet: 24 * kb, Weight: 0.55},
					{Kind: RandomInSet, WorkingSet: 160 * kb, Weight: 0.12},
				},
				PredictableFrac: 0.92, CallFrac: 0.03,
			},
		},
	}
}

// Twolf models SPEC twolf: place-and-route with pointer-chasing over a
// multi-megabyte netlist and poorly predictable branches — the paper's
// coolest, lowest-IPC integer application.
func Twolf() Profile {
	return Profile{
		Name: "twolf", Class: "SpecInt",
		PaperIPC: 0.8, PaperPowerW: 15.6,
		PhaseLen: 150_000,
		Phases: []Phase{
			{
				Name: "newpos", Weight: 1.0,
				Mix:      Mix{IntAlu: 0.44, IntMul: 0.02, IntDiv: 0.01, Load: 0.30, Store: 0.07, Branch: 0.16},
				DepGeomP: 0.30, NoDepFrac: 0.32,
				CodeBytes: 40 * kb,
				Streams: []Stream{
					{Kind: RandomInSet, WorkingSet: 3 * mb, Weight: 0.035},
					{Kind: RandomInSet, WorkingSet: 256 * kb, Weight: 0.10},
					{Kind: RandomInSet, WorkingSet: 32 * kb, Weight: 0.88},
				},
				PredictableFrac: 0.62, CallFrac: 0.05,
			},
		},
	}
}

// Art models SPEC art: a neural-network simulator streaming over
// matrices far larger than L2 — memory-bound FP with the suite's lowest
// IPC.
func Art() Profile {
	return Profile{
		Name: "art", Class: "SpecFP",
		PaperIPC: 0.7, PaperPowerW: 17.0,
		PhaseLen: 150_000,
		Phases: []Phase{
			{
				Name: "f1scan", Weight: 1.0,
				Mix:      Mix{IntAlu: 0.24, FPOp: 0.30, FPDiv: 0.01, Load: 0.33, Store: 0.06, Branch: 0.06},
				DepGeomP: 0.18, NoDepFrac: 0.42,
				CodeBytes: 8 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 6 * mb, StrideBytes: 16, Weight: 0.30},
					{Kind: RandomInSet, WorkingSet: 4 * mb, Weight: 0.06},
					{Kind: Strided, WorkingSet: 24 * kb, StrideBytes: 8, Weight: 0.64},
				},
				PredictableFrac: 0.95, CallFrac: 0.03,
			},
		},
	}
}

// Equake models SPEC equake: sparse matrix-vector FP computation with a
// mix of streaming and indirect accesses that partially fit in L2.
func Equake() Profile {
	return Profile{
		Name: "equake", Class: "SpecFP",
		PaperIPC: 1.4, PaperPowerW: 20.9,
		PhaseLen: 130_000,
		Phases: []Phase{
			{
				Name: "smvp", Weight: 1.0,
				Mix:      Mix{IntAlu: 0.28, FPOp: 0.26, Load: 0.31, Store: 0.08, Branch: 0.07},
				DepGeomP: 0.11, NoDepFrac: 0.52,
				CodeBytes: 10 * kb,
				Streams: []Stream{
					{Kind: Strided, WorkingSet: 128 * kb, StrideBytes: 8, Weight: 0.28},
					{Kind: RandomInSet, WorkingSet: 1536 * kb, Weight: 0.03},
					{Kind: Strided, WorkingSet: 32 * kb, StrideBytes: 8, Weight: 0.35},
					{Kind: RandomInSet, WorkingSet: 20 * kb, Weight: 0.29},
				},
				PredictableFrac: 0.94, CallFrac: 0.03,
			},
		},
	}
}

// Ammp models SPEC ammp: molecular dynamics with FP divides and
// neighbour-list gathers over an L2-straining working set.
func Ammp() Profile {
	return Profile{
		Name: "ammp", Class: "SpecFP",
		PaperIPC: 1.1, PaperPowerW: 19.7,
		PhaseLen: 130_000,
		Phases: []Phase{
			{
				Name: "mmfv", Weight: 1.0,
				Mix:      Mix{IntAlu: 0.26, FPOp: 0.30, FPDiv: 0.02, Load: 0.28, Store: 0.07, Branch: 0.07},
				DepGeomP: 0.17, NoDepFrac: 0.45,
				CodeBytes: 14 * kb,
				Streams: []Stream{
					{Kind: RandomInSet, WorkingSet: 1200 * kb, Weight: 0.06},
					{Kind: Strided, WorkingSet: 128 * kb, StrideBytes: 8, Weight: 0.34},
					{Kind: RandomInSet, WorkingSet: 28 * kb, Weight: 0.58},
					{Kind: RandomInSet, WorkingSet: 3 * mb, Weight: 0.02},
				},
				PredictableFrac: 0.93, CallFrac: 0.03,
			},
		},
	}
}
