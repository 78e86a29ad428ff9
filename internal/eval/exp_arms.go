// E7: the arms race. The paper's claim is that encryption strips a
// discriminatory ISP of what it needs to classify traffic; E7 stress-
// tests that claim against the adversary the claim does not cover. At
// fan-out scale it runs every combination of traffic mode {plaintext,
// encrypted, encrypted+cloak} and adversary {port-rule ISP, statistical
// dpi ISP}, with app-shaped flows (VoIP / video / bulk / web) as the
// workload, and measures classifier accuracy and per-class goodput:
//
//   - The port-rule ISP catches plaintext VoIP and is blinded by
//     encryption — the paper's result, reproduced.
//   - The dpi ISP classifies *encrypted* flows from sizes and timing
//     alone at >= 90% accuracy and degrades what it classifies:
//     encryption alone does not defeat statistical traffic analysis.
//   - Cloaking (padding + tick quantization + cover traffic) drives
//     dpi accuracy to chance and restores the targeted class's
//     goodput — at a measured overhead in wire bytes and latency,
//     which is the price of the last rung of the ladder.
package eval

import (
	"fmt"
	mathrand "math/rand"
	"time"

	"netneutral/internal/cloak"
	"netneutral/internal/dpi"
	"netneutral/internal/isp"
	"netneutral/internal/netem"
	"netneutral/internal/trafficgen"
)

// ArmsMode is how the flows travel.
type ArmsMode uint8

// Traffic modes.
const (
	// ModePlaintext sends raw UDP with real ports: the pre-neutralizer
	// world.
	ModePlaintext ArmsMode = iota
	// ModeEncrypted sends neutralized shim traffic (hidden destination,
	// opaque payload) with the application's natural sizes and timing.
	ModeEncrypted
	// ModeCloaked is ModeEncrypted through the cloak shaper: padded to
	// one size, released on a tick grid, idle ticks filled with cover.
	ModeCloaked
)

func (m ArmsMode) String() string {
	return enumName(m, "plaintext", "encrypted", "encrypted+cloak")
}

// ArmsAdversary is who sits at the transit router.
type ArmsAdversary uint8

// Adversaries.
const (
	// AdvNone observes features without classifying or interfering (the
	// calibration/training tap).
	AdvNone ArmsAdversary = iota
	// AdvPortRule is the strawman: drop 90% of packets matching the
	// VoIP UDP port.
	AdvPortRule
	// AdvDPI is the statistical adversary: classify flows by size and
	// timing features, drop 90% of classified VoIP, token-bucket
	// throttle classified video.
	AdvDPI
)

func (a ArmsAdversary) String() string { return enumName(a, "none", "port-rule", "dpi") }

// ArmsConfig parameterizes E7; the zero value gets the registered
// experiment's defaults.
type ArmsConfig struct {
	// FlowsPerClass is the number of flows per application class
	// (default 25; total flows = 4x this).
	FlowsPerClass int
	// Seed drives every RNG in the experiment.
	Seed int64
	// Duration is simulated traffic time per cell (default 5s).
	Duration time.Duration
}

func (c *ArmsConfig) fill() {
	orDefault(&c.FlowsPerClass, 25)
	orDefault(&c.Duration, 5*time.Second)
}

// ArmsCell is the measured outcome of one (mode, adversary) run.
type ArmsCell struct {
	Mode      ArmsMode
	Adversary ArmsAdversary

	Flows int
	// Accuracy is the dpi classifier's flow accuracy (-1 when the
	// adversary has no classifier).
	Accuracy float64
	// PortHits counts port-rule matches.
	PortHits uint64
	// Goodput is delivered/sent application bytes per class.
	Goodput [trafficgen.NumApps]float64
	// CloakOverhead is cloak wire bytes per real byte (1 uncloaked);
	// CloakDelay is the mean added latency per payload frame.
	CloakOverhead float64
	CloakDelay    time.Duration
	// DPIDrops / DPIPoliced count enforcement actions by the dpi engine.
	DPIDrops, DPIPoliced uint64
}

// ArmsStats is the full E7 outcome.
type ArmsStats struct {
	Cfg   ArmsConfig
	Cells []ArmsCell
	// TrainedFlows is the calibration population behind the classifier.
	TrainedFlows int
}

// Cell returns the run for a (mode, adversary) pair, or nil.
func (s *ArmsStats) Cell(m ArmsMode, a ArmsAdversary) *ArmsCell {
	for i := range s.Cells {
		if s.Cells[i].Mode == m && s.Cells[i].Adversary == a {
			return &s.Cells[i]
		}
	}
	return nil
}

var dpiClassOf = [trafficgen.NumApps]dpi.Class{
	trafficgen.AppVoIP:  dpi.ClassVoIP,
	trafficgen.AppVideo: dpi.ClassVideo,
	trafficgen.AppBulk:  dpi.ClassBulk,
	trafficgen.AppWeb:   dpi.ClassWeb,
}

// armsRun is one cell's live state while the simulator runs.
type armsRun struct {
	cell    ArmsCell
	table   *dpi.FlowTable // populated feature tap (AdvNone) or engine table
	keyOf   []netem.FlowKey
	classOf []dpi.Class
}

// runArmsCell builds the fan-out world for one cell and drives it.
// seedSalt decorrelates cells (training and evaluation must not share
// jitter streams).
func runArmsCell(cfg ArmsConfig, mode ArmsMode, adv ArmsAdversary, cls *dpi.Classifier, seedSalt int64) (*armsRun, error) {
	nFlows := trafficgen.NumApps * cfg.FlowsPerClass
	link := netem.LinkConfig{Delay: time.Millisecond, QueueLen: max(8*nFlows, 512)}
	// E7 runs unsharded: its flows all originate outside and the cloak
	// shapers schedule on the simulator, which is exactly the
	// single-shard contract.
	env, err := newFanoutEnv(cfg.Seed+seedSalt, netem.FanoutSpec{
		Hosts: nFlows, Outside: nFlows,
		HostLink: link, EdgeLink: link, TransitLink: link, OutsideLink: link,
	}, mode != ModePlaintext)
	if err != nil {
		return nil, err
	}
	sim, f := env.Sim, env.Fan

	run := &armsRun{
		cell:    ArmsCell{Mode: mode, Adversary: adv, Flows: nFlows, Accuracy: -1, CloakOverhead: 1},
		keyOf:   make([]netem.FlowKey, nFlows),
		classOf: make([]dpi.Class, nFlows),
	}

	// The adversary (or calibration tap) at the transit router.
	var engine *dpi.Engine
	var portPolicy *isp.Policy
	switch adv {
	case AdvPortRule:
		portPolicy = env.portRuleAtTransit(trafficgen.AppVoIP.Port())
	case AdvDPI:
		var pol dpi.Policy
		pol[dpi.ClassVoIP] = dpi.ClassPolicy{DropProb: 0.9}
		pol[dpi.ClassVideo] = dpi.ClassPolicy{RateBps: 8e6}
		engine = env.dpiAtTransit(cls, pol, 0)
		run.table = engine.Table()
	default:
		run.table = env.tapAtTransit(nil)
	}

	// Per-class byte accounting, filled by senders and host handlers.
	var sentReal, deliveredReal [trafficgen.NumApps]uint64
	zeros := make([]byte, 2048) // every flow's payload: senders only ever read it

	for i := 0; i < nFlows; i++ {
		app := trafficgen.App(i % trafficgen.NumApps)
		run.classOf[i] = dpiClassOf[app]
		src := f.Outside[i]
		dst := f.HostAddr(i)
		// The salt stride keeps per-flow jitter streams disjoint across
		// cells at any realistic flow count: training and evaluation
		// must not share randomness.
		flowRng := mathrand.New(mathrand.NewSource(cfg.Seed*1_000_003 + seedSalt<<32 + int64(i)))

		if run.keyOf[i], err = env.flowKey(src.Addr(), dst, mode); err != nil {
			return nil, err
		}
		send, err := env.flowSender(flowSpec{
			Src: src, Dst: dst, Mode: mode, Port: app.Port(),
			Index: i, Exp: 7, CloakFor: cfg.Duration,
		})
		if err != nil {
			return nil, err
		}
		emit := func(_ uint64, size int) {
			sentReal[app] += uint64(size)
			send(zeros[:size])
		}

		cloaked := mode == ModeCloaked
		f.Hosts[i].SetHandler(func(_ time.Time, pkt []byte) {
			deliveredReal[app] += uint64(armsRealPayloadLen(pkt, cloaked))
		})

		trafficgen.AppSource{App: app, Rng: flowRng}.Run(sim, cfg.Duration, emit)
	}

	sim.Run()

	// Harvest the verdict metrics.
	c := &run.cell
	for app := 0; app < trafficgen.NumApps; app++ {
		if sentReal[app] > 0 {
			c.Goodput[app] = float64(deliveredReal[app]) / float64(sentReal[app])
		}
	}
	if portPolicy != nil {
		c.PortHits = portPolicy.Hits(portRuleName)
	}
	if engine != nil {
		c.DPIDrops = engine.Drops(dpi.ClassVoIP)
		c.DPIPoliced = engine.Policed(dpi.ClassVideo)
	}
	if run.table != nil && cls != nil {
		correct := 0
		for i, key := range run.keyOf {
			if got, ok := run.table.ClassOf(key); ok && got == run.classOf[i] {
				correct++
			}
		}
		c.Accuracy = float64(correct) / float64(nFlows)
	}
	cost := env.cloakCost()
	c.CloakOverhead, c.CloakDelay = cost.Overhead(), cost.AvgDelay()
	return run, nil
}

// armsRealPayloadLen extracts the delivered application byte count from
// a packet that arrived at a customer host: UDP payload for plaintext,
// shim payload for neutralized traffic, and the decoded (non-cover)
// cloak frame payload when cloaking is on.
func armsRealPayloadLen(pkt []byte, cloaked bool) int {
	payload := deliveredPayload(pkt)
	if !cloaked {
		return len(payload)
	}
	inner, cover, err := cloak.DecodeFrame(payload)
	if err != nil || cover {
		return 0
	}
	return len(inner)
}

// armsSamples runs one passive (AdvNone) cell and returns its flows as
// labeled feature vectors — the training and held-out evaluation sets.
func armsSamples(cfg ArmsConfig, mode ArmsMode, salt int64) ([]dpi.Sample, *armsRun, error) {
	run, err := runArmsCell(cfg, mode, AdvNone, nil, salt)
	if err != nil {
		return nil, nil, err
	}
	labelOf := make(map[netem.FlowKey]dpi.Class, len(run.keyOf))
	for i, k := range run.keyOf {
		labelOf[k] = run.classOf[i]
	}
	var samples []dpi.Sample
	run.table.Each(func(e *dpi.FlowEntry) {
		if class, ok := labelOf[e.Key]; ok {
			s := dpi.Sample{Class: class}
			e.Feat.Vector(&s.Vec)
			samples = append(samples, s)
		}
	})
	return samples, run, nil
}

// RunArms trains the dpi classifier on a labeled calibration run, then
// measures every (mode, adversary) cell with held-out seeds.
func RunArms(cfg ArmsConfig) (*ArmsStats, error) {
	cfg.fill()
	st := &ArmsStats{Cfg: cfg}

	cls, trained, err := trainClassifier(cfg)
	if err != nil {
		return nil, err
	}
	st.TrainedFlows = trained

	salt := int64(2)
	for _, adv := range []ArmsAdversary{AdvPortRule, AdvDPI} {
		for _, mode := range []ArmsMode{ModePlaintext, ModeEncrypted, ModeCloaked} {
			run, err := runArmsCell(cfg, mode, adv, cls, salt)
			if err != nil {
				return nil, fmt.Errorf("eval: arms cell %v/%v: %w", mode, adv, err)
			}
			st.Cells = append(st.Cells, run.cell)
			salt++
		}
	}
	return st, verifyArms(st)
}

// verifyArms asserts the arms-race ladder quantitatively; a violated
// rung is an experiment failure, the same contract E6 uses.
func verifyArms(st *ArmsStats) error {
	voip := int(trafficgen.AppVoIP)
	pp := st.Cell(ModePlaintext, AdvPortRule)
	pe := st.Cell(ModeEncrypted, AdvPortRule)
	dp := st.Cell(ModePlaintext, AdvDPI)
	de := st.Cell(ModeEncrypted, AdvDPI)
	dc := st.Cell(ModeCloaked, AdvDPI)
	pc := st.Cell(ModeCloaked, AdvPortRule)
	return firstFailed("arms race", []check{
		{pp.PortHits > 0 && pp.Goodput[voip] < 0.5,
			fmt.Sprintf("port rule vs plaintext: hits=%d voip goodput=%.2f, want degraded", pp.PortHits, pp.Goodput[voip])},
		{pe.PortHits == 0 && pe.Goodput[voip] > 0.9,
			fmt.Sprintf("port rule vs encrypted: hits=%d voip goodput=%.2f, want blinded (paper's claim)", pe.PortHits, pe.Goodput[voip])},
		{pc.PortHits == 0 && pc.Goodput[voip] > 0.9,
			fmt.Sprintf("port rule vs cloaked: hits=%d voip goodput=%.2f, want cloak to add no port visibility", pc.PortHits, pc.Goodput[voip])},
		{dp.Accuracy >= 0.9,
			fmt.Sprintf("dpi vs plaintext: accuracy=%.2f, want >= 0.90", dp.Accuracy)},
		{de.Accuracy >= 0.9,
			fmt.Sprintf("dpi vs encrypted: accuracy=%.2f, want >= 0.90 (encryption alone does not defeat dpi)", de.Accuracy)},
		{de.Goodput[voip] < 0.4,
			fmt.Sprintf("dpi vs encrypted: voip goodput=%.2f, want < 0.40 (classified and dropped)", de.Goodput[voip])},
		{dc.Accuracy <= 0.4,
			fmt.Sprintf("dpi vs cloaked: accuracy=%.2f, want <= 0.40 (near chance for 4 classes)", dc.Accuracy)},
		{dc.Goodput[voip] > 0.7,
			fmt.Sprintf("dpi vs cloaked: voip goodput=%.2f, want restored > 0.70", dc.Goodput[voip])},
		{dc.CloakOverhead > 1,
			fmt.Sprintf("cloak overhead=%.2fx, want measured cost > 1x", dc.CloakOverhead)},
	})
}

// RunE7 is the registered arms-race experiment.
func RunE7() (*Result, error) { return rows(RunArms(ArmsConfig{Seed: 7})) }

// Result renders the ladder as the E7 rows.
func (st *ArmsStats) Result() *Result {
	voip, video := int(trafficgen.AppVoIP), int(trafficgen.AppVideo)
	pp := st.Cell(ModePlaintext, AdvPortRule)
	pe := st.Cell(ModeEncrypted, AdvPortRule)
	dp := st.Cell(ModePlaintext, AdvDPI)
	de := st.Cell(ModeEncrypted, AdvDPI)
	dc := st.Cell(ModeCloaked, AdvDPI)
	rows := []Row{
		{Metric: "flows (4 app classes)", Paper: "-", Measured: fmt.Sprintf("%d", de.Flows),
			Note: fmt.Sprintf("classifier trained on %d held-out calibration flows", st.TrainedFlows)},
		{Metric: "port rule vs plaintext: voip goodput", Paper: "degraded",
			Measured: fmt.Sprintf("%.0f%%", 100*pp.Goodput[voip]),
			Note:     fmt.Sprintf("%d port matches: the strawman works on plaintext", pp.PortHits)},
		{Metric: "port rule vs encrypted: voip goodput", Paper: "restored",
			Measured: fmt.Sprintf("%.0f%%", 100*pe.Goodput[voip]),
			Note:     fmt.Sprintf("%d port matches: the paper's claim holds vs port rules", pe.PortHits)},
		{Metric: "dpi accuracy vs plaintext", Paper: "-",
			Measured: fmt.Sprintf("%.0f%%", 100*dp.Accuracy), Note: "statistical fingerprint, no ports needed"},
		{Metric: "dpi accuracy vs encrypted", Paper: ">= 90%",
			Measured: fmt.Sprintf("%.0f%%", 100*de.Accuracy),
			Note:     "sizes and timing survive encryption: the claim's limit"},
		{Metric: "dpi vs encrypted: voip goodput", Paper: "degraded",
			Measured: fmt.Sprintf("%.0f%%", 100*de.Goodput[voip]),
			Note:     fmt.Sprintf("%d classified-voip drops", de.DPIDrops)},
		{Metric: "dpi vs encrypted: video goodput", Paper: "throttled",
			Measured: fmt.Sprintf("%.0f%%", 100*de.Goodput[video]),
			Note:     fmt.Sprintf("%d token-bucket drops at 8 Mbps class rate", de.DPIPoliced)},
		{Metric: "dpi accuracy vs cloak", Paper: "<= 40% (chance=25%)",
			Measured: fmt.Sprintf("%.0f%%", 100*dc.Accuracy),
			Note:     "padding + tick grid + cover erase the fingerprint"},
		{Metric: "dpi vs cloak: voip goodput", Paper: "restored",
			Measured: fmt.Sprintf("%.0f%%", 100*dc.Goodput[voip]), Note: "classifier cannot find the target class"},
		{Metric: "cloak cost: wire bytes / real byte", Paper: "-",
			Measured: fmt.Sprintf("%.1fx", dc.CloakOverhead),
			Note:     fmt.Sprintf("+%v mean latency per frame", dc.CloakDelay.Round(time.Millisecond))},
	}
	return &Result{ID: "E7", Title: armsTitle, Rows: rows}
}

const armsTitle = "Arms race: statistical DPI vs cloaking at fan-out scale"

// DPIBench is the fixture behind BenchmarkDPIClassify and
// BenchmarkCloakFrame: a classifier trained on one reduced arms run,
// held-out labeled vectors with the accuracy measured on them, and the
// cloak overhead measured on a cloaked run — the numbers those
// benchmarks report as "acc" and "xreal".
type DPIBench struct {
	Cls *dpi.Classifier
	// Samples are held-out labeled vectors (encrypted, uncloaked).
	Samples []dpi.Sample
	// Accuracy is the classifier's score on Samples.
	Accuracy float64
	// CloakOverhead is wire bytes per real byte under the E7 cloak.
	CloakOverhead float64
}

// NewDPIBench builds the fixture from three reduced passive runs:
// train, held-out evaluation, and cloaked cost measurement.
func NewDPIBench() (*DPIBench, error) {
	cfg := calibrationConfig(42)
	cls, _, err := trainClassifier(cfg)
	if err != nil {
		return nil, err
	}
	heldOut, _, err := armsSamples(cfg, ModeEncrypted, 9)
	if err != nil {
		return nil, err
	}
	correct := 0
	for i := range heldOut {
		if got, _ := cls.ClassifyVec(&heldOut[i].Vec); got == heldOut[i].Class {
			correct++
		}
	}
	_, cloaked, err := armsSamples(cfg, ModeCloaked, 10)
	if err != nil {
		return nil, err
	}
	return &DPIBench{
		Cls:           cls,
		Samples:       heldOut,
		Accuracy:      float64(correct) / float64(len(heldOut)),
		CloakOverhead: cloaked.cell.CloakOverhead,
	}, nil
}
