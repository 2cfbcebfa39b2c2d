package dynring

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// This file defines the serializable counterparts of Scenario and Sweep.
// Scenario and Sweep carry function fields (adversary factories, protocol
// constructors) and therefore cannot cross a process boundary; the *Spec
// types describe the same grids as plain JSON-encodable data. They are the
// wire format of the ringsimd service (see Client and internal/service) and
// the input format of cmd/ringsim's -server mode.
//
// A spec names its adversary by kind and parameters, and the derived
// AdversarySpec.Label encodes every parameter — so two scenarios whose
// dynamics differ in any way also differ in AdversaryLabel, which is what
// keeps Scenario.Fingerprint sound as a cache key.

// AdversarySpec is the serializable description of a built-in adversary.
// Kind selects the strategy; the remaining fields parameterize it and are
// ignored by kinds that do not use them.
type AdversarySpec struct {
	// Kind is one of the paper's strategies — none, random, greedy,
	// frontier, pin, persistent, prevent — or a dynamics-model-zoo family:
	// tinterval, capped, recurrent.
	Kind string `json:"kind"`
	// P is the edge-removal probability for Kind "random".
	P float64 `json:"p,omitempty"`
	// Edge is the removed edge for Kind "persistent".
	Edge int `json:"edge,omitempty"`
	// Pin is the targeted agent for Kind "pin".
	Pin int `json:"pin,omitempty"`
	// T is the phase length for Kind "tinterval" (T-interval connectivity:
	// the missing edge changes only every T rounds); it must be ≥ 1.
	T int `json:"t,omitempty"`
	// R is the per-round removal cap for Kind "capped" (at most R missing
	// edges per round); it must be ≥ 1.
	R int `json:"r,omitempty"`
	// W is the recurrence window for Kind "recurrent" (no edge missing for
	// more than W consecutive rounds); it must be ≥ 1.
	W int `json:"w,omitempty"`
	// Act, when in (0,1), wraps the strategy in RandomActivation with that
	// activation probability (SSYNC models). 0 or 1 leaves every agent
	// active in every round.
	Act float64 `json:"act,omitempty"`
}

// Label renders the spec as a canonical, parameter-bearing name. It keys
// aggregation cells and — via Scenario.AdversaryLabel — feeds
// Scenario.Fingerprint, so it must (and does) encode every parameter that
// changes the dynamics.
func (a AdversarySpec) Label() string {
	var l string
	switch a.Kind {
	case "random":
		l = fmt.Sprintf("random(p=%g)", a.P)
	case "pin":
		l = fmt.Sprintf("pin(%d)", a.Pin)
	case "persistent":
		l = fmt.Sprintf("persistent(%d)", a.Edge)
	case "tinterval":
		l = fmt.Sprintf("tinterval(T=%d)", a.T)
	case "capped":
		l = fmt.Sprintf("capped(r=%d)", a.R)
	case "recurrent":
		l = fmt.Sprintf("recurrent(w=%d)", a.W)
	default:
		l = a.Kind
	}
	if a.Act > 0 && a.Act < 1 {
		l = fmt.Sprintf("act(%g)+%s", a.Act, l)
	}
	return l
}

// Factory builds the adversary factory the spec describes. Seeded strategies
// consume the per-scenario seed; the stateless proof strategies ignore it.
// Parameters that can only be range-checked against a concrete scenario
// (Pin vs agent count, Edge vs ring size) are validated for sign here; the
// ringsimd service additionally isolates any run-time fault to its own
// scenario row.
func (a AdversarySpec) Factory() (AdversaryFactory, error) {
	if a.Pin < 0 {
		return nil, fmt.Errorf("dynring: adversary pin %d is negative", a.Pin)
	}
	if a.Edge < 0 {
		return nil, fmt.Errorf("dynring: adversary edge %d is negative", a.Edge)
	}
	// 0 is the JSON zero value ("unset": full activation), 1 is explicit
	// full activation. Anything outside [0,1] is rejected rather than
	// silently running fully active — that would invert the dynamics.
	if a.Act < 0 || a.Act > 1 {
		return nil, fmt.Errorf("dynring: adversary act %g outside [0,1]", a.Act)
	}
	var base AdversaryFactory
	switch a.Kind {
	case "none":
		base = Fixed(NoAdversary())
	case "random":
		base = RandomEdgesFactory(a.P)
	case "greedy":
		base = Fixed(GreedyBlocking())
	case "frontier":
		base = Fixed(FrontierGuarding())
	case "pin":
		base = Fixed(PinAgent(a.Pin))
	case "persistent":
		base = Fixed(KeepEdgeRemoved(a.Edge))
	case "prevent":
		base = Fixed(PreventMeetings())
	case "tinterval":
		if a.T < 1 {
			return nil, fmt.Errorf("dynring: tinterval needs a phase length T ≥ 1 (got %d)", a.T)
		}
		base = TIntervalFactory(a.T)
	case "capped":
		if a.R < 1 {
			return nil, fmt.Errorf("dynring: capped needs a removal cap r ≥ 1 (got %d)", a.R)
		}
		base = Fixed(CappedRemoval(a.R))
	case "recurrent":
		if a.W < 1 {
			return nil, fmt.Errorf("dynring: recurrent needs a window w ≥ 1 (got %d)", a.W)
		}
		base = RecurrentFactory(a.W)
	default:
		return nil, fmt.Errorf("dynring: unknown adversary kind %q", a.Kind)
	}
	if a.Act > 0 && a.Act < 1 {
		return RandomActivationFactory(a.Act, base), nil
	}
	return base, nil
}

// ParseAdversary parses a canonical adversary label back into its spec —
// the inverse of AdversarySpec.Label, and the grammar behind cmd/ringsim's
// parameter-bearing -adversary/-adversaries values:
//
//	label   := [ "act(" float ")+" ] strategy
//	strategy:= "none" | "greedy" | "frontier" | "prevent"
//	         | "random(p=" float ")" | "pin(" int ")" | "persistent(" int ")"
//	         | "tinterval(T=" int ")" | "capped(r=" int ")" | "recurrent(w=" int ")"
//
// Parameter keys are matched case-insensitively. The returned spec is
// validated (ParseAdversary fails exactly when spec.Factory would), and
// round-trips: ParseAdversary(spec.Label()) reproduces the spec.
func ParseAdversary(label string) (AdversarySpec, error) {
	var spec AdversarySpec
	s := strings.TrimSpace(label)
	if strings.HasPrefix(s, "act(") {
		end := strings.Index(s, ")+")
		if end < 0 {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: act(...) wrapper not closed with \")+\"", label)
		}
		v, err := strconv.ParseFloat(s[len("act("):end], 64)
		if err != nil {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: bad activation probability: %v", label, err)
		}
		spec.Act = v
		s = s[end+2:]
	}
	open := strings.IndexByte(s, '(')
	if open < 0 {
		spec.Kind = s
	} else {
		if !strings.HasSuffix(s, ")") {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: unbalanced parentheses", label)
		}
		spec.Kind = s[:open]
		arg := s[open+1 : len(s)-1]
		// Accept both the canonical keyed form (p=0.5, T=2) and a bare
		// value; the key, when present, must match the kind's parameter.
		key := ""
		if eq := strings.IndexByte(arg, '='); eq >= 0 {
			key = strings.ToLower(strings.TrimSpace(arg[:eq]))
			arg = arg[eq+1:]
		}
		arg = strings.TrimSpace(arg)
		checkKey := func(want string) error {
			if key != "" && key != want {
				return fmt.Errorf("dynring: adversary label %q: parameter %q, want %q", label, key, want)
			}
			return nil
		}
		var err error
		switch spec.Kind {
		case "random":
			if err = checkKey("p"); err == nil {
				spec.P, err = strconv.ParseFloat(arg, 64)
			}
		case "pin":
			if err = checkKey("pin"); err == nil {
				spec.Pin, err = strconv.Atoi(arg)
			}
		case "persistent":
			if err = checkKey("edge"); err == nil {
				spec.Edge, err = strconv.Atoi(arg)
			}
		case "tinterval":
			if err = checkKey("t"); err == nil {
				spec.T, err = strconv.Atoi(arg)
			}
		case "capped":
			if err = checkKey("r"); err == nil {
				spec.R, err = strconv.Atoi(arg)
			}
		case "recurrent":
			if err = checkKey("w"); err == nil {
				spec.W, err = strconv.Atoi(arg)
			}
		default:
			err = fmt.Errorf("dynring: unknown adversary kind %q", spec.Kind)
		}
		if err != nil {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: %v", label, err)
		}
	}
	if _, err := spec.Factory(); err != nil {
		return AdversarySpec{}, err
	}
	return spec, nil
}

// ScenarioSpec is the serializable subset of Scenario: everything except
// the function-valued escape hatches (NewProtocols, a custom NewAdversary,
// Observer). See Scenario for field semantics; zero values mean "use the
// algorithm's default" exactly as there.
type ScenarioSpec struct {
	Name      string `json:"name,omitempty"`
	Size      int    `json:"size"`
	Landmark  int    `json:"landmark"`
	Algorithm string `json:"algorithm"`
	// Model is "", "default", "fsync", "ssync-ns", "ssync-pt" or "ssync-et".
	Model      string `json:"model,omitempty"`
	UpperBound int    `json:"upper_bound,omitempty"`
	ExactSize  int    `json:"exact_size,omitempty"`
	Starts     []int  `json:"starts,omitempty"`
	// Orients are "cw"/"ccw" strings.
	Orients []string `json:"orients,omitempty"`
	// Adversary describes the dynamics; nil means an always-connected ring.
	Adversary        *AdversarySpec `json:"adversary,omitempty"`
	Seed             int64          `json:"seed,omitempty"`
	MaxRounds        int            `json:"max_rounds,omitempty"`
	StopWhenExplored bool           `json:"stop_when_explored,omitempty"`
	FairnessBound    int            `json:"fairness_bound,omitempty"`
	DetectCycles     bool           `json:"detect_cycles,omitempty"`
}

// ParseModel converts a wire model name to a Model. The empty string and
// "default" map to ModelDefault.
func ParseModel(s string) (Model, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return ModelDefault, nil
	case "fsync":
		return FSync, nil
	case "ssync-ns", "ssync/ns":
		return SSyncNS, nil
	case "ssync-pt", "ssync/pt":
		return SSyncPT, nil
	case "ssync-et", "ssync/et":
		return SSyncET, nil
	default:
		return ModelDefault, fmt.Errorf("dynring: unknown model %q", s)
	}
}

// ParseOrient converts "cw"/"ccw" to a GlobalDir.
func ParseOrient(s string) (GlobalDir, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cw":
		return CW, nil
	case "ccw":
		return CCW, nil
	default:
		return 0, fmt.Errorf("dynring: orientation %q (want cw or ccw)", s)
	}
}

// Scenario materializes the spec into a runnable Scenario, constructing the
// adversary factory and filling AdversaryLabel with the spec's Label.
func (sp ScenarioSpec) Scenario() (Scenario, error) {
	model, err := ParseModel(sp.Model)
	if err != nil {
		return Scenario{}, err
	}
	var orients []GlobalDir
	if sp.Orients != nil {
		orients = make([]GlobalDir, len(sp.Orients))
		for i, o := range sp.Orients {
			if orients[i], err = ParseOrient(o); err != nil {
				return Scenario{}, err
			}
		}
	}
	sc := Scenario{
		Name:             sp.Name,
		Size:             sp.Size,
		Landmark:         sp.Landmark,
		Algorithm:        sp.Algorithm,
		Model:            model,
		UpperBound:       sp.UpperBound,
		ExactSize:        sp.ExactSize,
		Starts:           sp.Starts,
		Orients:          orients,
		Seed:             sp.Seed,
		MaxRounds:        sp.MaxRounds,
		StopWhenExplored: sp.StopWhenExplored,
		FairnessBound:    sp.FairnessBound,
		DetectCycles:     sp.DetectCycles,
	}
	if sp.Adversary != nil {
		if sc.NewAdversary, err = sp.Adversary.Factory(); err != nil {
			return Scenario{}, err
		}
		sc.AdversaryLabel = sp.Adversary.Label()
	}
	return sc, nil
}

// Spec converts the scenario's data fields to wire form, the inverse of
// ScenarioSpec.Scenario. Function-valued fields cannot cross the wire:
// dynamics must be described by an AdversarySpec (in the spec's Adversary
// field or a SweepSpec's adversary axis), so a scenario carrying a live
// NewAdversary or NewProtocols factory is rejected rather than silently
// stripped of its dynamics.
func (s Scenario) Spec() (ScenarioSpec, error) {
	if s.NewProtocols != nil {
		return ScenarioSpec{}, fmt.Errorf("%w: NewProtocols factories have no wire form", ErrNotFingerprintable)
	}
	if s.NewAdversary != nil {
		return ScenarioSpec{}, fmt.Errorf("%w: describe the dynamics as an AdversarySpec instead of a live factory", ErrNotFingerprintable)
	}
	sp := ScenarioSpec{
		Name:             s.Name,
		Size:             s.Size,
		Landmark:         s.Landmark,
		Algorithm:        s.Algorithm,
		UpperBound:       s.UpperBound,
		ExactSize:        s.ExactSize,
		Starts:           s.Starts,
		Seed:             s.Seed,
		MaxRounds:        s.MaxRounds,
		StopWhenExplored: s.StopWhenExplored,
		FairnessBound:    s.FairnessBound,
		DetectCycles:     s.DetectCycles,
	}
	if s.Model != ModelDefault {
		// Model.String names ("FSYNC", "SSYNC/NS", ...) round-trip through
		// ParseModel, which is case-insensitive and accepts the "/" forms.
		sp.Model = strings.ToLower(s.Model.String())
	}
	for _, o := range s.Orients {
		if o == CW {
			sp.Orients = append(sp.Orients, "cw")
		} else {
			sp.Orients = append(sp.Orients, "ccw")
		}
	}
	return sp, nil
}

// WireSpec converts the scenario to wire form like Spec, additionally
// reconstructing the AdversarySpec from a live factory's canonical
// AdversaryLabel (Spec rejects live factories outright). This is what lets
// a cluster node re-serialize a scenario it expanded from a grid and proxy
// it to the fingerprint's owner: for every built-in adversary the label
// round-trips through ParseAdversary by construction.
//
// The reconstruction leans on the label contract behind
// Scenario.Fingerprint — a factory labelled with a canonical kind must
// behave as that kind. A custom factory with a non-canonical label (or an
// unlabelled one) fails with ErrNotFingerprintable; such scenarios are
// not proxyable and execute on the node that holds them.
func (s Scenario) WireSpec() (ScenarioSpec, error) {
	if s.NewAdversary == nil {
		return s.Spec()
	}
	as, err := ParseAdversary(s.AdversaryLabel)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("%w: adversary label %q has no wire form: %v",
			ErrNotFingerprintable, s.AdversaryLabel, err)
	}
	bare := s
	bare.NewAdversary = nil
	bare.AdversaryLabel = ""
	sp, err := bare.Spec()
	if err != nil {
		return ScenarioSpec{}, err
	}
	sp.Adversary = &as
	return sp, nil
}

// SweepSpec is the serializable counterpart of Sweep: a base scenario spec
// plus the grid axes. It deliberately has no worker knob — local callers set
// Sweep.Workers after conversion, and the ringsimd service schedules every
// job on one shared pool.
//
// Scenarios, when non-empty, switches the spec to explicit-list form: the
// job is exactly that scenario list, in order, and Base plus every axis
// must be empty (mixing the two forms is rejected — a grid silently glued
// to a list would make the job's row order ambiguous). The explicit form
// submits a hand-picked set of scenarios that no grid expresses; axis-form
// specs remain the wire format for whole grids.
type SweepSpec struct {
	Base        ScenarioSpec    `json:"base"`
	Algorithms  []string        `json:"algorithms,omitempty"`
	Sizes       []int           `json:"sizes,omitempty"`
	Seeds       []int64         `json:"seeds,omitempty"`
	Adversaries []AdversarySpec `json:"adversaries,omitempty"`
	Scenarios   []ScenarioSpec  `json:"scenarios,omitempty"`
}

// ScenarioList expands the spec to its job rows, in order, handling both
// forms: explicit-list specs materialize and validate each ScenarioSpec,
// axis-form specs expand through Sweep.Scenarios. It is the single
// expansion path of the ringsimd service and the remote client, so both
// ends of the wire agree on row order by construction.
func (sp SweepSpec) ScenarioList() ([]Scenario, error) {
	if len(sp.Scenarios) == 0 {
		sw, err := sp.Sweep()
		if err != nil {
			return nil, err
		}
		return sw.Scenarios()
	}
	if len(sp.Algorithms)+len(sp.Sizes)+len(sp.Seeds)+len(sp.Adversaries) > 0 ||
		!reflect.DeepEqual(sp.Base, ScenarioSpec{}) {
		return nil, fmt.Errorf("dynring: SweepSpec mixes explicit scenarios with base/axes — use one form")
	}
	out := make([]Scenario, len(sp.Scenarios))
	for i, ss := range sp.Scenarios {
		sc, err := ss.Scenario()
		if err != nil {
			return nil, fmt.Errorf("dynring: scenarios[%d]: %w", i, err)
		}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("dynring: scenarios[%d]: %w", i, err)
		}
		out[i] = sc
	}
	return out, nil
}

// Sweep materializes the spec. Axis expansion and validation still happen in
// Sweep.Scenarios, so an invalid grid is reported there, not here.
// Explicit-list specs have no Sweep form; use ScenarioList.
func (sp SweepSpec) Sweep() (Sweep, error) {
	if len(sp.Scenarios) > 0 {
		return Sweep{}, fmt.Errorf("dynring: explicit-list SweepSpec has no axis form — expand with ScenarioList")
	}
	base, err := sp.Base.Scenario()
	if err != nil {
		return Sweep{}, err
	}
	sw := Sweep{
		Base:       base,
		Algorithms: sp.Algorithms,
		Sizes:      sp.Sizes,
		Seeds:      sp.Seeds,
	}
	for _, as := range sp.Adversaries {
		f, err := as.Factory()
		if err != nil {
			return Sweep{}, err
		}
		sw.Adversaries = append(sw.Adversaries, SweepAdversary{Name: as.Label(), New: f})
	}
	return sw, nil
}
