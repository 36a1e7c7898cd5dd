package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// EncodeTOML renders the scenario as canonical TOML: fixed section
// order, sorted option keys, numeric power levels, duration strings.
// Parse(EncodeTOML(s)) reproduces s exactly, and re-encoding that
// parse yields identical bytes — the stability property the
// round-trip tests pin.
func (s *Scenario) EncodeTOML() []byte {
	var b strings.Builder
	e := encoder{&b}
	e.kv("version", int64(s.Version))
	if s.Name != "" {
		e.kv("name", s.Name)
	}
	if s.Faults != "" {
		e.kv("faults", s.Faults)
	}

	e.section("topology")
	t := &s.Topology
	e.kv("kind", t.Kind)
	e.optInt("rows", t.Rows)
	e.optInt("cols", t.Cols)
	e.optFloat("spacing", t.Spacing)
	e.optInt("n", t.N)
	e.optFloat("width", t.Width)
	e.optFloat("height", t.Height)
	e.optFloat("radius", t.Radius)
	if t.Seed != 0 {
		e.kv("seed", t.Seed)
	}
	e.optInt("attempts", t.Attempts)
	if len(t.Points) > 0 {
		e.points("points", t.Points)
	}
	if t.File != "" {
		e.kv("file", t.File)
	}

	if r := s.Radio; r != nil {
		e.section("radio")
		e.optInt("bit_rate_bps", r.BitRateBps)
		e.optFloatPtr("ber_floor", r.BERFloor)
		e.optFloatPtr("ber_ceil", r.BERCeil)
		e.optFloatPtr("asym_sigma", r.AsymSigma)
		e.optFloatPtr("capture_ratio", r.CaptureRatio)
		if len(r.RangeFeet) > 0 {
			e.section("radio.range_feet")
			keys := make([]string, 0, len(r.RangeFeet))
			for k := range r.RangeFeet {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e.kv(k, r.RangeFeet[k])
			}
		}
	}

	if m := s.Mobility; m != nil {
		e.section("mobility")
		e.kv("kind", m.Kind)
		e.optFloat("speed_min", m.SpeedMin)
		e.optFloat("speed_max", m.SpeedMax)
		if m.Pause != 0 {
			e.kv("pause", time.Duration(m.Pause).String())
		}
		e.optFloat("width", m.Width)
		e.optFloat("height", m.Height)
		if m.Every != 0 {
			e.kv("every", time.Duration(m.Every).String())
		}
		if m.Seed != 0 {
			e.kv("seed", m.Seed)
		}
		if m.File != "" {
			e.kv("file", m.File)
		}
	}

	p := &s.Protocol
	if p.Name != "" || len(p.Options) > 0 || len(p.Tune) > 0 {
		e.section("protocol")
		if p.Name != "" {
			e.kv("name", p.Name)
		}
		if len(p.Options) > 0 {
			e.section("protocol.options")
			e.optionMap(p.Options)
		}
		for _, rule := range p.Tune {
			e.arraySection("protocol.tune")
			e.kv("nodes", rule.Nodes)
			if len(rule.Options) > 0 {
				e.section("protocol.tune.options")
				e.optionMap(rule.Options)
			}
		}
	}

	r := &s.Run
	hasRun := r.Seed != 0 || len(r.Seeds) > 0 || r.ImagePackets != 0 || r.Power != 0 ||
		r.Base != 0 || r.Limit != 0 || r.Shards != 0 || r.Workers != 0 ||
		r.TileRows != 0 || r.TileCols != 0 || r.Repartition ||
		r.RepartitionEvery != 0 || r.RepartitionThreshold != 0
	if hasRun {
		e.section("run")
		if r.Seed != 0 {
			e.kv("seed", r.Seed)
		}
		if len(r.Seeds) > 0 {
			e.seedList("seeds", r.Seeds)
		}
		e.optInt("image_packets", r.ImagePackets)
		e.optInt("power", int(r.Power))
		e.optInt("base", r.Base)
		if r.Limit != 0 {
			e.kv("limit", time.Duration(r.Limit).String())
		}
		e.optInt("shards", r.Shards)
		e.optInt("workers", r.Workers)
		e.optInt("tile_rows", r.TileRows)
		e.optInt("tile_cols", r.TileCols)
		if r.Repartition {
			e.kv("repartition", true)
		}
		e.optInt("repartition_every", r.RepartitionEvery)
		e.optFloat("repartition_threshold", r.RepartitionThreshold)
	}

	if bat := s.Battery; bat != nil {
		e.section("battery")
		e.optFloat("default", bat.Default)
		for _, rule := range bat.Rules {
			e.arraySection("battery.rules")
			e.kv("nodes", rule.Nodes)
			e.kv("level", rule.Level)
		}
	}

	if inv := s.Invariants; inv != nil {
		e.section("invariants")
		e.kv("enabled", inv.Enabled)
		if inv.AllowRadioOnInSleep {
			e.kv("allow_radio_on_in_sleep", true)
		}
		e.optInt("sender_overlap_budget", inv.SenderOverlapBudget)
	}

	if tel := s.Telemetry; tel != nil {
		e.section("telemetry")
		if tel.Dir != "" {
			e.kv("dir", tel.Dir)
		}
		if tel.Progress {
			e.kv("progress", true)
		}
	}

	return []byte(b.String())
}

type encoder struct{ b *strings.Builder }

func (e encoder) section(name string) {
	fmt.Fprintf(e.b, "\n[%s]\n", name)
}

func (e encoder) arraySection(name string) {
	fmt.Fprintf(e.b, "\n[[%s]]\n", name)
}

func (e encoder) kv(key string, v any) {
	fmt.Fprintf(e.b, "%s = %s\n", key, formatValue(v))
}

func (e encoder) optInt(key string, v int) {
	if v != 0 {
		e.kv(key, int64(v))
	}
}

func (e encoder) optFloat(key string, v float64) {
	if v != 0 {
		e.kv(key, v)
	}
}

func (e encoder) optFloatPtr(key string, v *float64) {
	if v != nil {
		e.kv(key, *v)
	}
}

func (e encoder) optionMap(m map[string]any) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.kv(k, m[k])
	}
}

func (e encoder) seedList(key string, seeds []int64) {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatInt(s, 10)
	}
	fmt.Fprintf(e.b, "%s = [%s]\n", key, strings.Join(parts, ", "))
}

func (e encoder) points(key string, pts [][]float64) {
	parts := make([]string, len(pts))
	for i, xy := range pts {
		coords := make([]string, len(xy))
		for j, c := range xy {
			coords[j] = formatFloat(c)
		}
		parts[i] = "[" + strings.Join(coords, ", ") + "]"
	}
	fmt.Fprintf(e.b, "%s = [%s]\n", key, strings.Join(parts, ", "))
}

func formatValue(v any) string {
	switch t := v.(type) {
	case string:
		return strconv.Quote(t)
	case bool:
		return strconv.FormatBool(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case int:
		return strconv.Itoa(t)
	case float64:
		return formatFloat(t)
	default:
		return strconv.Quote(fmt.Sprint(t))
	}
}

// formatFloat renders integral floats with no exponent or decimal
// point, so a value that parsed as an int re-encodes as one — the
// parse → encode → parse fixed point the round-trip tests require.
func formatFloat(f float64) string {
	if f == float64(int64(f)) && f >= -1e15 && f <= 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
