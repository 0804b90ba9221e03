package main

import (
	"fmt"
	"time"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/sim"
)

// sources holds one program's µP4 source text: the main file and its
// library modules, read before any set-up timing starts.
type sources struct {
	mainFile, main string
	names, mods    []string
}

func loadSources(prog string) (*sources, error) {
	m, err := lib.Program(prog)
	if err != nil {
		return nil, err
	}
	s := &sources{mainFile: m.MainFile, names: m.Modules}
	if s.main, err = lib.Source(m.MainFile); err != nil {
		return nil, err
	}
	for _, name := range m.Modules {
		src, err := lib.ModuleSource(name)
		if err != nil {
			return nil, err
		}
		s.mods = append(s.mods, src)
	}
	return s, nil
}

// setupLog collects the set-up work of every repetition, as timed from
// outside the program's public calls.
type setupLog struct {
	compile  []float64 // ms per repetition: every CompileModule call
	build    []float64 // ms per repetition: Build
	addEntry []int64   // ns per TryAddEntry call
	tr       *tracer
}

// compile runs the µP4C frontend over every module and links them with
// Build — the public path from source text to a Dataplane.
func (s *sources) compile(sl *setupLog) (*microp4.Dataplane, error) {
	t0 := time.Now()
	sl.tr.begin("frontend.CompileModule", 0)
	main, err := microp4.CompileModule(s.mainFile, s.main)
	if err != nil {
		return nil, err
	}
	var mods []*microp4.Module
	for i, src := range s.mods {
		mod, err := microp4.CompileModule(s.names[i]+".up4", src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.names[i], err)
		}
		mods = append(mods, mod)
	}
	sl.tr.end()
	t1 := time.Now()
	sl.tr.begin("midend.Build", 0)
	dp, err := microp4.Build(main, mods...)
	sl.tr.end()
	if err != nil {
		return nil, err
	}
	sl.compile = append(sl.compile, ms(t1.Sub(t0)))
	sl.build = append(sl.build, ms(time.Since(t1)))
	return dp, nil
}

// newSwitch instantiates a compiled switch with one caller and no
// worker pool, and installs rules through TryAddEntry.
func newSwitch(dp *microp4.Dataplane, rules []rule, sl *setupLog) (*microp4.Switch, error) {
	sl.tr.begin("switch.NewSwitch", 0)
	sw := dp.NewSwitch()
	sw.SetWorkers(1)
	sl.tr.end()
	return sw, installRules(sw, rules, sl)
}

func installRules(sw *microp4.Switch, rules []rule, sl *setupLog) error {
	for _, r := range rules {
		keys := publicKeys(r.keys)
		sl.tr.begin("switch.TryAddEntry", 0)
		t0 := time.Now()
		err := sw.TryAddEntry(r.table, keys, r.action, r.args...)
		d := time.Since(t0)
		sl.tr.end()
		if err != nil {
			return fmt.Errorf("install %s %s: %w", r.table, r.action, err)
		}
		sl.addEntry = append(sl.addEntry, int64(d))
	}
	return nil
}

func publicKeys(ks []sim.RuntimeKey) []microp4.Key {
	keys := make([]microp4.Key, len(ks))
	for i, k := range ks {
		switch {
		case k.DontCare:
			keys[i] = microp4.Any()
		case k.HasMask:
			keys[i] = microp4.Ternary(k.Value, k.Mask)
		case k.PrefixLen > 0:
			keys[i] = microp4.LPM(k.Value, k.PrefixLen)
		default:
			keys[i] = microp4.Exact(k.Value)
		}
	}
	return keys
}

// libRules is the program's standard evaluation rule set.
func libRules(prog string) []rule {
	t := sim.NewTables()
	lib.InstallDefaultRules(t, prog, false)
	var out []rule
	for _, name := range t.TableNames() {
		for _, e := range t.Entries(name) {
			out = append(out, rule{name, e.Keys, e.Action, e.Args})
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
