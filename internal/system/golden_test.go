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
	"dc/CoolPIM(HW) result":            "9658bfa88b3e3e54796082f57cf43bad4d914df3588e2b4dfa23bb9affe46c0b",
	"dc/CoolPIM(HW) verify":            "<nil>",
	"dc/CoolPIM(SW) result":            "4f1c5a1df19bc8afaf240636594d58c270659374eaddbbda908dc0407157adcd",
	"dc/CoolPIM(SW) verify":            "<nil>",
	"dc/IdealThermal result":           "683a2ea966608c737988ba454028d1317413548b64887058b9fbcd91f528bf6b",
	"dc/IdealThermal verify":           "<nil>",
	"dc/Naive-Offloading result":       "9f1b944d1489a55e51d977798812f1b3bd3f488c4be99f18343ecc2d5a03f1a2",
	"dc/Naive-Offloading verify":       "<nil>",
	"dc/Non-Offloading result":         "dcedc117b066f6892f59943fa81aec7ac84606f9e00b258c3b143ef4baf7400d",
	"dc/Non-Offloading verify":         "<nil>",
	"mc/chain4 result":                 "41f391c62cf9fc5e42bba91c3fc1d2381df598de4b026a5701e030d6437501cc",
	"mc/chain4 verify":                 "<nil>",
	"mc/mesh4-adaptive result":         "d9968a1cf55802189dc2f4ffaf368d9649fc5c4ef8fdb023f2f9d7b1ebd3c9ad",
	"mc/mesh4-adaptive verify":         "<nil>",
	"mc/tel-chain2 chrome":             "28d4c0d803ecb0c49d6790a313f060d747bc354b3c68c7142f57a6d651426a6b",
	"mc/tel-chain2 diag":               "a9420cb9cff05328cac5f87a459eba028131eb807dac644ee3ae0327ce77cca4",
	"mc/tel-chain2 prom":               "1d7120ab2006a99543a4c2a449a23e18051e0986d530fe4e240f83095012552d",
	"mc/tel-chain2 result":             "8f0ef35d8849e74514c1a77d84dd59f52fde388fb0bc77fd971f88ef5efa8980",
	"mc/tel-chain2 series":             "099d01eeead9e7bc62f95d240733ef98711627c1de925c8db0a584a74f970a3f",
	"mc/tel-chain2 spans":              "527d539a28954eff290b69849b0d06a720c64fa21c7ce5a7961330be51fe50af",
	"mc/tel-chain2 verify":             "<nil>",
	"mc/tel-shutdown2 chrome":          "4c065b7723c54694698bbbee8404239739cca6f9977e32c83e3047526e069cd0",
	"mc/tel-shutdown2 diag":            "e410dca21a46cd70d5f28108e8a079fca108fbf4a89c3644ed08c42f4f390e8b",
	"mc/tel-shutdown2 prom":            "f0a7581ffd1d278dda0dc037d626b470fb8efbaad5ad73768858e19a17a19a04",
	"mc/tel-shutdown2 result":          "514a1611fcd98b35f022b4d713bbd80a600354ac55bc07930cff88751c174182",
	"mc/tel-shutdown2 series":          "dafea92e891f47a855157d6b9927cae32c774e9f2b4ff40e7728efc85d582dba",
	"mc/tel-shutdown2 spans":           "3cc54979618aabbeebf3b0423ff0ef575bb3c02240dc100b4e095efecdc48941",
	"mc/tel-shutdown2 verify":          "<nil>",
	"pagerank/CoolPIM(HW) result":      "c172a74cfcf9810731a56f080cfb2a82626cfb508f3ed7ad13c5514f59869057",
	"pagerank/CoolPIM(HW) verify":      "<nil>",
	"pagerank/CoolPIM(SW) result":      "bbf099b75ab2006f7d606a65608122e3369507f9eafe2a901b644d26feb0677b",
	"pagerank/CoolPIM(SW) verify":      "<nil>",
	"pagerank/IdealThermal result":     "4c3c7732aefc43aed2d2bb320ee98f97a122ba6abf9c294cc67d7c1cdfd50c42",
	"pagerank/IdealThermal verify":     "<nil>",
	"pagerank/Naive-Offloading result": "a234c34e877a06f7f3a3a38bc81ee2862da5c6bad85627e4658d22604957daeb",
	"pagerank/Naive-Offloading verify": "<nil>",
	"pagerank/Non-Offloading result":   "66be7165e3702fc4d437f1d74d08e2cd69c27d7d53281881fd3feeb5a656e299",
	"pagerank/Non-Offloading verify":   "<nil>",
	"tel/adaptive chrome":              "dd2433e905c67c609bbd0e67002918e74a96309995dff35e7f78b60c692e6ff1",
	"tel/adaptive diag":                "2c8ad21bd862cf29fa4cfb2cc650f4b181b124ce68911b3f88ab8727af855e63",
	"tel/adaptive prom":                "7da6abbb92494acbf3a2cf66fee9b0fc6a6b5da7bfc13c8cb26b592f5cccc18d",
	"tel/adaptive result":              "4a60df497f535f0476a6fda8a699732478ec2937859c3a094a9203d7a23bfc38",
	"tel/adaptive series":              "bf2392cef0fd8514eb094d351bd93c4a95be8de65e27d69969d50e305077ad91",
	"tel/adaptive spans":               "bf53ca5b13122ad4ed222cc06b78b78f7a955a39a9b86c48708148104d85970a",
	"tel/adaptive verify":              "<nil>",
	"tel/cool chrome":                  "0f7289bb02dc6348edc7e872ae72bf8ea5a20e18eb897a14fac11745674735fd",
	"tel/cool diag":                    "27ea82352284f38fbb70c4aaa58fe0a6cb0b305536ebde0f24528728bd5b02c2",
	"tel/cool prom":                    "aefa39018bdf6c9adc8632055f82c7b2a92f4b90f3da9befd11fc275fbc8f363",
	"tel/cool result":                  "9658bfa88b3e3e54796082f57cf43bad4d914df3588e2b4dfa23bb9affe46c0b",
	"tel/cool series":                  "2760b13e522a6d942adc9a4a79f97cc3549c428d07b53403e2e70971a19661f3",
	"tel/cool spans":                   "10cb2846a28717605fff7842c0b1e2374177bc45b1a5fe0164861140e16361bd",
	"tel/cool verify":                  "<nil>",
	"tel/multilevel chrome":            "c9061010cc317e20d3c4424c2e9783df5c25acfc516e8297b584e50aae0bce03",
	"tel/multilevel diag":              "5781958025f3f2b309bcc9af17e606a1f3f426a1051a11c6a1a0931f6b70356a",
	"tel/multilevel prom":              "49c11e195a89d271b400e5dd61270911e1cd7a2596ef1d1e401c1a58928e2cbd",
	"tel/multilevel result":            "64dcbf1847afce98fc8e7fe25c07dcf1669662c6aa94654158231b39f010ce6d",
	"tel/multilevel series":            "4c83ac11d77777a3bd236b6de506db0f6069ef9952d08bcbda6847fc81ffa165",
	"tel/multilevel spans":             "86338466ffa76e67349b9958d8a0d30afdac6cf4df3e42c984055bdd268d9ee6",
	"tel/multilevel verify":            "<nil>",
	"tel/shutdown chrome":              "8be468d5ea998d20820a022d0c8af71a6aff9dbef140c1a9c9ef934aeb0cb52d",
	"tel/shutdown diag":                "883e5a42341e4304be9968d1f6c87cee5098afc5e45eb990b0881a356c988e05",
	"tel/shutdown prom":                "b64c28f21f27a6bd5bb018639331c6f7983071bb6642672aa6f8dfe3e83c1acb",
	"tel/shutdown result":              "dd38250c4195adc38735273396b51fdb294fc0ca9c741521b61783cf1940f1b5",
	"tel/shutdown series":              "dafea92e891f47a855157d6b9927cae32c774e9f2b4ff40e7728efc85d582dba",
	"tel/shutdown spans":               "5b713d18f9b5806fe34863e533eb42e2b88a0974b6cd210868b79958e4c1a241",
	"tel/shutdown verify":              "<nil>",
	"tel/sw-hot chrome":                "445653a16ef6b4865dfc67ff2b5bb28cd2868270e11669d33e40dae90b927ec8",
	"tel/sw-hot diag":                  "bad463096d30c5196ba189ce3c6fb13360d49d4388fd9df2dbc94ff04813db79",
	"tel/sw-hot prom":                  "2ecd9f8a573b55e7f7984b954a00851546adf4b8ee4fd02ed83016899bb85d26",
	"tel/sw-hot result":                "27aa8d5a57e78e2953524f5710b21afab0d76c370711b6059b4ff62f58e9da5c",
	"tel/sw-hot series":                "49883d8d9ea6b9df1489e02e47fedda0b2a62a6d97d1eef42596e302ec2aa4d2",
	"tel/sw-hot spans":                 "789480adab7145536e8bfa9fc7477b47b4ba1b1b160eeed9637d5eea21a21f43",
	"tel/sw-hot verify":                "<nil>",
	"tel/warn26 chrome":                "15aab161d62c3b46118c6456f8c6b3ef2d4ad33275911e909b472387f499ec0e",
	"tel/warn26 diag":                  "ab955824c9cb8eefed028923d3e6d1604f6640349015ba933f612ef3fcdce8a8",
	"tel/warn26 prom":                  "483a74467e2707f242827b784283ee37fd4cd507bad2bce0c11c45e0d617d2a7",
	"tel/warn26 result":                "b45c749787295fd95fe7bd065e542463a35f92fd3f69015cfb464d49a762e019",
	"tel/warn26 series":                "0648edeeb9d049c44ce36985948117cbdfc0eb8e1628995749b95460d49ef1f1",
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
			"series": tel.Series.WriteCSV,
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
