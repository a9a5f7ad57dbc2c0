package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/telemetry"
)

// goldenCase is one pinned run: a workload, a policy, a configuration
// and whether the run is instrumented (then every telemetry export is
// pinned as well).
type goldenCase struct {
	name string
	wl   string
	pol  core.PolicyKind
	cfg  func() Config
	g    *graph.Graph
	tel  bool
	race bool // also run under the race detector
}

// diagCapture is a snapshot sink rendering every published snapshot
// into one byte stream.
type diagCapture struct{ sb strings.Builder }

func (d *diagCapture) PublishSnapshot(s *telemetry.Snapshot) {
	fmt.Fprintf(&d.sb, "run=%q t=%d events=%d spans=%d\n%s%s\n",
		s.RunID, s.SimTime, s.TraceEvents, s.SpanCount, s.Metrics, s.Spans)
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, wl := range []string{"dc", "pagerank"} {
		for _, pol := range core.Kinds() {
			cases = append(cases, goldenCase{name: wl + "/" + pol.String(), wl: wl, pol: pol, cfg: thrashCfg, g: testGraph})
		}
	}
	warm := func() Config {
		cfg := thrashCfg()
		cfg.HMC.WarnTemp = 26 // ambient is 25 C: any heating raises warnings
		return cfg
	}
	adaptive := func() Config {
		cfg := thrashCfg()
		cfg.ThermalMode = ThermalAdaptive
		return cfg
	}
	hot := func() Config {
		cfg := thrashCfg()
		cfg.Stack.Ambient = 104 // shuts down within the first few thermal ticks
		return cfg
	}
	// The heat trick: the small test graph crosses the 85 C warning
	// threshold, so the controllers act, and under multi-level HW the
	// cube passes the critical level.
	heated := func() Config {
		cfg := thrashCfg()
		cfg.Stack.Ambient = 80
		return cfg
	}
	multiLevel := func() Config {
		cfg := heated()
		cfg.MultiLevelHW = true
		return cfg
	}
	// Instrumented multi-cube cases run on one shard (shards=1): node
	// 0's periodic diag snapshots read the other nodes' published views,
	// which only one shard orders deterministically.
	mc := func(topo hmc.Topology, cubes, shards int, mutate func(*Config)) func() Config {
		return func() Config {
			cfg := mcConfig(topo, cubes, shards)
			if mutate != nil {
				mutate(&cfg)
			}
			return cfg
		}
	}
	cases = append(cases,
		goldenCase{name: "tel/cool", wl: "dc", pol: core.CoolPIMHW, cfg: thrashCfg, g: testGraph, tel: true},
		goldenCase{name: "tel/warn26", wl: "dc", pol: core.CoolPIMHW, cfg: warm, g: testGraph, tel: true},
		goldenCase{name: "tel/adaptive", wl: "dc", pol: core.CoolPIMSW, cfg: adaptive, g: testGraph, tel: true},
		goldenCase{name: "tel/shutdown", wl: "dc", pol: core.NaiveOffloading, cfg: hot, g: testGraph, tel: true, race: true},
		goldenCase{name: "tel/sw-hot", wl: "sssp-twc", pol: core.CoolPIMSW, cfg: heated, g: testGraph, tel: true},
		goldenCase{name: "tel/multilevel", wl: "sssp-twc", pol: core.CoolPIMHW, cfg: multiLevel, g: testGraph, tel: true},
		goldenCase{name: "mc/chain4", wl: "dc", pol: core.CoolPIMHW, cfg: mc(hmc.TopoChain, 4, 0, nil), g: mcGraph},
		goldenCase{name: "mc/mesh4-adaptive", wl: "dc", pol: core.CoolPIMSW, cfg: mc(hmc.TopoMesh, 4, 0, func(c *Config) {
			c.ThermalMode = ThermalAdaptive
		}), g: mcGraph},
		goldenCase{name: "mc/tel-chain2", wl: "dc", pol: core.CoolPIMHW, cfg: mc(hmc.TopoChain, 2, 1, nil), g: mcGraph, tel: true},
		goldenCase{name: "mc/tel-shutdown2", wl: "dc", pol: core.NaiveOffloading, cfg: mc(hmc.TopoChain, 2, 1, func(c *Config) {
			c.Stack.Ambient = 104
		}), g: mcGraph, tel: true, race: true},
	)
	return cases
}

// goldenDigests pins, per case, the sha256 of every artifact a run
// produces: the %+v Result fingerprint and, for instrumented runs, the
// spans JSONL (the stream's spans, instants left out), the Chrome
// trace_event JSON (spans and instants), Prometheus text, series CSV
// and the concatenated diag snapshots. verify is the VerifyErr text.
var goldenDigests = map[string]string{
	"dc/CoolPIM(HW) result":            "afb1e510bc71165e2775df70e6614097315d1aaaa2188359466df07e3253ed91",
	"dc/CoolPIM(HW) verify":            "<nil>",
	"dc/CoolPIM(SW) result":            "3b1787ba25d6fba0b0aaa5679e3741f7ab0cf7c24620a97985e1c22382eb93c0",
	"dc/CoolPIM(SW) verify":            "<nil>",
	"dc/IdealThermal result":           "883a718d91e5fbd236c55d2d3c0168f6284c189622a0154c32e02de6ab47a2c5",
	"dc/IdealThermal verify":           "<nil>",
	"dc/Naive-Offloading result":       "78cd49ca6bac90bc37a56965e052d7d2f1178a890055340b317f88150834405a",
	"dc/Naive-Offloading verify":       "<nil>",
	"dc/Non-Offloading result":         "8099879ada47143e5aec6f48ea91d69b945ed3a445f359585f3d9386d31bd6bc",
	"dc/Non-Offloading verify":         "<nil>",
	"mc/chain4 result":                 "a50258b9277d0ec9e8945404cc8efde2b199b600e01a09bbaa811b53cf778996",
	"mc/chain4 verify":                 "<nil>",
	"mc/mesh4-adaptive result":         "5aaec0ae40543a1bb2d4ec02b8e8611f48ef306c8e0c096f3baadf20bdf46f0f",
	"mc/mesh4-adaptive verify":         "<nil>",
	"mc/tel-chain2 chrome":             "28d4c0d803ecb0c49d6790a313f060d747bc354b3c68c7142f57a6d651426a6b",
	"mc/tel-chain2 diag":               "a9420cb9cff05328cac5f87a459eba028131eb807dac644ee3ae0327ce77cca4",
	"mc/tel-chain2 prom":               "1d7120ab2006a99543a4c2a449a23e18051e0986d530fe4e240f83095012552d",
	"mc/tel-chain2 result":             "a22540fd150bf0deba4bdd037f8fd331830971ee4f727379175a23d4f5136012",
	"mc/tel-chain2 series":             "874f6da73a6a3f36e61c34c06d66b59a3093a6c762d6d7d56fe00f6ccb602c50",
	"mc/tel-chain2 spans":              "527d539a28954eff290b69849b0d06a720c64fa21c7ce5a7961330be51fe50af",
	"mc/tel-chain2 verify":             "<nil>",
	"mc/tel-shutdown2 chrome":          "4c065b7723c54694698bbbee8404239739cca6f9977e32c83e3047526e069cd0",
	"mc/tel-shutdown2 diag":            "e410dca21a46cd70d5f28108e8a079fca108fbf4a89c3644ed08c42f4f390e8b",
	"mc/tel-shutdown2 prom":            "f0a7581ffd1d278dda0dc037d626b470fb8efbaad5ad73768858e19a17a19a04",
	"mc/tel-shutdown2 result":          "1f468ec7bfda3f2270cf9daa1e9f803b35f589893ff5d7491b4653e1786029c1",
	"mc/tel-shutdown2 series":          "7a9e114155514cd8212e4a04d898c1cbfef3bc5c48eb767398544c3861ffbd51",
	"mc/tel-shutdown2 spans":           "3cc54979618aabbeebf3b0423ff0ef575bb3c02240dc100b4e095efecdc48941",
	"mc/tel-shutdown2 verify":          "<nil>",
	"pagerank/CoolPIM(HW) result":      "effd4533c1eb49188b9963b87797abeec120ee10671ddc4f6151644986ae2415",
	"pagerank/CoolPIM(HW) verify":      "<nil>",
	"pagerank/CoolPIM(SW) result":      "c26c947947904c54bd79bd94058736cfe077820c2933bba3265bd4d00f88afd4",
	"pagerank/CoolPIM(SW) verify":      "<nil>",
	"pagerank/IdealThermal result":     "d4f451664bb843b55b2634f1443799dc69a151db908164914e5287a368e63107",
	"pagerank/IdealThermal verify":     "<nil>",
	"pagerank/Naive-Offloading result": "0fe234db92e1a8c6c14195b9155ff6de36ad44742f74f5466d370cd3dc8f367e",
	"pagerank/Naive-Offloading verify": "<nil>",
	"pagerank/Non-Offloading result":   "be151e5296d3b97d99841ad3304363582228d01aeca5446ee2a01a08dee3a3a0",
	"pagerank/Non-Offloading verify":   "<nil>",
	"tel/adaptive chrome":              "57f8a346ade83535f8ca9f856f7d773a94b74a370e2ffc2b153a829c4397b57e",
	"tel/adaptive diag":                "6da0eb51f1e52945a3ac42e12a3a1ffe9310ec6dbbab09f708dcfc8c0fe44e2b",
	"tel/adaptive prom":                "7da6abbb92494acbf3a2cf66fee9b0fc6a6b5da7bfc13c8cb26b592f5cccc18d",
	"tel/adaptive result":              "f8ff735538457150ef13c032640f73c74b69345205d77c84c14840d537592fab",
	"tel/adaptive series":              "58d4ec7d84418c0292014fb8bb4aae846db58506698fc0a38adab4fd1dfd6d21",
	"tel/adaptive spans":               "57c21c46e8aac2d24f33ab04d0d1cb0630f360a5dcc03d1c1c86ca45276be2a6",
	"tel/adaptive verify":              "<nil>",
	"tel/cool chrome":                  "0f7289bb02dc6348edc7e872ae72bf8ea5a20e18eb897a14fac11745674735fd",
	"tel/cool diag":                    "27ea82352284f38fbb70c4aaa58fe0a6cb0b305536ebde0f24528728bd5b02c2",
	"tel/cool prom":                    "aefa39018bdf6c9adc8632055f82c7b2a92f4b90f3da9befd11fc275fbc8f363",
	"tel/cool result":                  "afb1e510bc71165e2775df70e6614097315d1aaaa2188359466df07e3253ed91",
	"tel/cool series":                  "97cded9eb30ca8f48ce5c6422fd65d271db85830c3e175b4740c322544940338",
	"tel/cool spans":                   "10cb2846a28717605fff7842c0b1e2374177bc45b1a5fe0164861140e16361bd",
	"tel/cool verify":                  "<nil>",
	"tel/multilevel chrome":            "c9061010cc317e20d3c4424c2e9783df5c25acfc516e8297b584e50aae0bce03",
	"tel/multilevel diag":              "5781958025f3f2b309bcc9af17e606a1f3f426a1051a11c6a1a0931f6b70356a",
	"tel/multilevel prom":              "49c11e195a89d271b400e5dd61270911e1cd7a2596ef1d1e401c1a58928e2cbd",
	"tel/multilevel result":            "1a98c409bac717cc9d4c767202bfa8ea2729f3441284f85e2dd5bf94922c2d83",
	"tel/multilevel series":            "90bf439105bc61a0c083fdc0cfc1138b95990051eaf7faed45e76271cf560e5b",
	"tel/multilevel spans":             "86338466ffa76e67349b9958d8a0d30afdac6cf4df3e42c984055bdd268d9ee6",
	"tel/multilevel verify":            "<nil>",
	"tel/shutdown chrome":              "8be468d5ea998d20820a022d0c8af71a6aff9dbef140c1a9c9ef934aeb0cb52d",
	"tel/shutdown diag":                "883e5a42341e4304be9968d1f6c87cee5098afc5e45eb990b0881a356c988e05",
	"tel/shutdown prom":                "b64c28f21f27a6bd5bb018639331c6f7983071bb6642672aa6f8dfe3e83c1acb",
	"tel/shutdown result":              "e9b19640eb3d55c708a2fb5bf5fcc860e2c217de78b6b2968d447f2cb2312a2f",
	"tel/shutdown series":              "4ddcfe210375b3bc5849f8ba99430aecc2b7225c38ac5c8e16720300d295198f",
	"tel/shutdown spans":               "5b713d18f9b5806fe34863e533eb42e2b88a0974b6cd210868b79958e4c1a241",
	"tel/shutdown verify":              "<nil>",
	"tel/sw-hot chrome":                "445653a16ef6b4865dfc67ff2b5bb28cd2868270e11669d33e40dae90b927ec8",
	"tel/sw-hot diag":                  "bad463096d30c5196ba189ce3c6fb13360d49d4388fd9df2dbc94ff04813db79",
	"tel/sw-hot prom":                  "2ecd9f8a573b55e7f7984b954a00851546adf4b8ee4fd02ed83016899bb85d26",
	"tel/sw-hot result":                "15ecc4956cc00bd8bf1f280d4245422880a0d77ae7ac5acedb0ef566a9cd1277",
	"tel/sw-hot series":                "4d2ddc9faf080945607e88e2459ac97e51050c3805ce16a9fddde9c96681468e",
	"tel/sw-hot spans":                 "789480adab7145536e8bfa9fc7477b47b4ba1b1b160eeed9637d5eea21a21f43",
	"tel/sw-hot verify":                "<nil>",
	"tel/warn26 chrome":                "15aab161d62c3b46118c6456f8c6b3ef2d4ad33275911e909b472387f499ec0e",
	"tel/warn26 diag":                  "ab955824c9cb8eefed028923d3e6d1604f6640349015ba933f612ef3fcdce8a8",
	"tel/warn26 prom":                  "483a74467e2707f242827b784283ee37fd4cd507bad2bce0c11c45e0d617d2a7",
	"tel/warn26 result":                "62446ee6903cd3af0b5501da00c7e83e604f2fb1941fab53d897e939302211d2",
	"tel/warn26 series":                "c542411fb5101ee3e4a4ec2f16e5b448c21beb5eed8b1a339a4678b6b623bc0d",
	"tel/warn26 spans":                 "c836d99d2ac46003c83b4a8599e956b66983d14d27924a07807df711939ae41a",
	"tel/warn26 verify":                "<nil>",
}

// runGolden executes one case and returns its artifacts by name.
func runGolden(t *testing.T, c goldenCase) map[string]string {
	t.Helper()
	cfg := c.cfg()
	var diag diagCapture
	if c.tel {
		cfg.Telemetry = telemetry.New()
		cfg.Telemetry.Sink = &diag
	}
	res, err := Run(c.wl, c.pol, cfg, c.g)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	checkCubeAccounting(t, c.name, res)
	out := map[string]string{"verify": fmt.Sprint(res.VerifyErr)}
	cp := *res
	cp.VerifyErr = nil
	out["result"] = fmt.Sprintf("%+v", cp)
	if c.tel {
		tel := cfg.Telemetry
		records := tel.Spans.Export()
		for name, write := range map[string]func(io.Writer) error{
			"spans": func(w io.Writer) error {
				return telemetry.WriteSpansJSONL(w, slices.DeleteFunc(slices.Clone(records), telemetry.SpanExport.Instant))
			},
			"prom":   tel.Registry.WritePrometheus,
			"series": func(w io.Writer) error { return WriteSeriesCSV(w, res.Series) },
			"chrome": func(w io.Writer) error { return telemetry.WriteChromeTrace(w, records) },
		} {
			var sb strings.Builder
			if err := write(&sb); err != nil {
				t.Fatalf("%s: %s export: %v", c.name, name, err)
			}
			out[name] = sb.String()
		}
		out["diag"] = diag.sb.String()
		// The JSONL stream carries everything the Chrome export shows.
		var stream, chrome strings.Builder
		if err := tel.Spans.WriteJSONL(&stream); err != nil {
			t.Fatal(err)
		}
		parsed, err := telemetry.ParseSpansJSONL(strings.NewReader(stream.String()))
		if err != nil {
			t.Fatalf("%s: parsing the stream: %v", c.name, err)
		}
		if err := telemetry.WriteChromeTrace(&chrome, parsed); err != nil {
			t.Fatal(err)
		}
		if chrome.String() != out["chrome"] {
			t.Errorf("%s: Chrome export of the parsed JSONL stream differs from the direct export", c.name)
		}
	}
	return out
}

// checkCubeAccounting asserts the cube's accounting identities on a
// run's result. Fig. 11's numerator is 64 B per read or write plus 16 B
// per PIM operand exchange. Request FLITs are Table I's 1 per read, 5
// per write and 2 per PIM op; response FLITs are 5 per read and 1 per
// write, plus 1 or 2 per PIM op (without or with return). A multi-cube
// run's totals are the sums over its cubes.
//
// A request's FLITs are counted when it enters its source cube's host
// link, and the request when its home cube serves it. In a multi-cube
// run, a shutdown ends the run with requests still on the inter-cube
// links (96 request FLITs in mc/tel-shutdown2): there the FLIT counts
// are bounded from below only.
func checkCubeAccounting(t *testing.T, what string, res *Result) {
	t.Helper()
	h := res.HMC
	if want := 64*(h.Reads+h.Writes) + 16*h.PIMOps; res.ExtDataBytes != want || h.ExtDataBytes != want {
		t.Errorf("%s: ExtDataBytes %d (cube counters %d), want 64·(%d+%d) + 16·%d = %d",
			what, res.ExtDataBytes, h.ExtDataBytes, h.Reads, h.Writes, h.PIMOps, want)
	}
	if res.ReqFlits != h.ReqFlits || res.RespFlits != h.RespFlits {
		t.Errorf("%s: FLITs %d/%d, cube counters %d/%d", what, res.ReqFlits, res.RespFlits, h.ReqFlits, h.RespFlits)
	}
	inFlight := res.Shutdown && len(res.PerCube) > 0
	if want := h.Reads + 5*h.Writes + 2*h.PIMOps; res.ReqFlits != want && !(inFlight && res.ReqFlits > want) {
		t.Errorf("%s: ReqFlits %d, want %d + 5·%d + 2·%d = %d",
			what, res.ReqFlits, h.Reads, h.Writes, h.PIMOps, want)
	}
	lo, hi := 5*h.Reads+h.Writes+h.PIMOps, 5*h.Reads+h.Writes+2*h.PIMOps
	if res.RespFlits < lo || res.RespFlits > hi && !inFlight {
		t.Errorf("%s: RespFlits %d, want within [%d, %d]", what, res.RespFlits, lo, hi)
	}
	if res.PIMOps != h.PIMOps {
		t.Errorf("%s: PIMOps %d, cube counters %d", what, res.PIMOps, h.PIMOps)
	}
	if len(res.PerCube) == 0 {
		return
	}
	var sum [8]uint64
	for _, c := range res.PerCube {
		for i, v := range [...]uint64{c.PIMOps, c.ExtDataBytes, c.HMC.Reads, c.HMC.Writes,
			c.HMC.PIMOps, c.HMC.ExtDataBytes, c.HMC.ReqFlits, c.HMC.RespFlits} {
			sum[i] += v
		}
	}
	if want := [...]uint64{res.PIMOps, res.ExtDataBytes, h.Reads, h.Writes,
		h.PIMOps, h.ExtDataBytes, res.ReqFlits, res.RespFlits}; sum != want {
		t.Errorf("%s: per-cube sums %v, run totals %v (PIMOps, ExtDataBytes, cube Reads, Writes, PIMOps, ExtDataBytes, ReqFlits, RespFlits)",
			what, sum, want)
	}
}

// TestGoldenOutputs pins every output of a fixed set of runs, single-
// and multi-cube, bare and instrumented, cool and shutting down, to
// digests recorded before single- and multi-cube runs shared one
// wiring path. A change that moves any byte of a Result, trace, span
// stream, metrics export, series or diag snapshot fails here, logging
// the regenerated table entry for review. Under the race detector only the two shutdown
// cases run: they cover the single- and multi-node wiring end to end
// in a few thermal ticks, and the detector's memory grows with every
// run the package makes.
func TestGoldenOutputs(t *testing.T) {
	for _, c := range goldenCases() {
		if raceEnabled && !c.race {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			arts := runGolden(t, c)
			names := make([]string, 0, len(arts))
			for art := range arts {
				names = append(names, art)
			}
			sort.Strings(names)
			for _, art := range names {
				key, got := c.name+" "+art, arts[art]
				if art != "verify" {
					sum := sha256.Sum256([]byte(got))
					got = hex.EncodeToString(sum[:])
				}
				if want := goldenDigests[key]; got != want {
					t.Errorf("%s changed; regenerated entry:\n\t%q: %q,", key, key, got)
				}
			}
		})
	}
}
