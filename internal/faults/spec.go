package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mnp/internal/packet"
)

// ParseSpec parses a compact fault-plan string, for CLI use. Events
// are semicolon-separated:
//
//	crash:5@20s                  kill node 5 at t=20s
//	reboot:7@30s+10s             crash node 7 at 30s, restart at 40s
//	partition:0-31@60s-120s      isolate nodes 0..31 from the rest
//	degrade:5->7@10s-50s:0.8     drop 80% of 5->7 deliveries
//	degrade:5<->7@10s-50s:0.8    same, both directions
//	degrade:*->*@0s-2h:0.3       30% loss on every link (uniform-loss sweeps)
//	degrade:5->*@10s-50s:0.8     every link out of node 5
//	eeprom:*:0.01                1% write-error rate, all non-base nodes
//	eeprom:9:0.05@20s-80s        5% on node 9, windowed
//	randkill:6@20s-145s          6 random crashes spread over the window
func ParseSpec(spec string) (*Plan, error) {
	plan := &Plan{}
	for _, raw := range strings.Split(spec, ";") {
		item := strings.TrimSpace(raw)
		if item == "" {
			continue
		}
		ev, err := parseEvent(item)
		if err != nil {
			return nil, fmt.Errorf("faults: %q: %w", item, err)
		}
		plan.Events = append(plan.Events, ev)
	}
	if len(plan.Events) == 0 {
		return nil, fmt.Errorf("faults: spec %q has no events", spec)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

func parseEvent(item string) (Event, error) {
	kind, rest, ok := strings.Cut(item, ":")
	if !ok {
		return Event{}, fmt.Errorf("missing ':' after kind")
	}
	switch kind {
	case "crash":
		node, at, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, fmt.Errorf("want crash:NODE@TIME")
		}
		id, err := parseNode(node)
		if err != nil {
			return Event{}, err
		}
		t, err := time.ParseDuration(at)
		if err != nil {
			return Event{}, err
		}
		return Crash(id, t), nil
	case "reboot":
		node, when, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, fmt.Errorf("want reboot:NODE@TIME+DOWNTIME")
		}
		id, err := parseNode(node)
		if err != nil {
			return Event{}, err
		}
		at, down, ok := strings.Cut(when, "+")
		if !ok {
			return Event{}, fmt.Errorf("want reboot:NODE@TIME+DOWNTIME")
		}
		t, err := time.ParseDuration(at)
		if err != nil {
			return Event{}, err
		}
		d, err := time.ParseDuration(down)
		if err != nil {
			return Event{}, err
		}
		return CrashReboot(id, t, d), nil
	case "partition":
		nodes, window, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, fmt.Errorf("want partition:LO-HI@FROM-TO")
		}
		lo, hi, err := parseRange(nodes)
		if err != nil {
			return Event{}, err
		}
		from, to, err := parseWindow(window)
		if err != nil {
			return Event{}, err
		}
		group := make([]packet.NodeID, 0, hi-lo+1)
		for id := lo; id <= hi; id++ {
			group = append(group, packet.NodeID(id))
		}
		return Partition(group, from, to), nil
	case "degrade":
		link, tail, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, fmt.Errorf("want degrade:SRC->DST@FROM-TO:DROP")
		}
		window, drop, ok := strings.Cut(tail, ":")
		if !ok {
			return Event{}, fmt.Errorf("want degrade:SRC->DST@FROM-TO:DROP")
		}
		bidi := strings.Contains(link, "<->")
		sep := "->"
		if bidi {
			sep = "<->"
		}
		src, dst, ok := strings.Cut(link, sep)
		if !ok {
			return Event{}, fmt.Errorf("want SRC->DST or SRC<->DST")
		}
		s, err := parseNodeOrWildcard(src)
		if err != nil {
			return Event{}, err
		}
		d, err := parseNodeOrWildcard(dst)
		if err != nil {
			return Event{}, err
		}
		from, to, err := parseWindow(window)
		if err != nil {
			return Event{}, err
		}
		p, err := strconv.ParseFloat(drop, 64)
		if err != nil {
			return Event{}, err
		}
		return DegradeLink(s, d, bidi, from, to, p), nil
	case "eeprom":
		node, tail, ok := strings.Cut(rest, ":")
		if !ok {
			return Event{}, fmt.Errorf("want eeprom:NODE:RATE[@FROM-TO]")
		}
		var id packet.NodeID
		if node == "*" {
			id = Wildcard
		} else {
			var err error
			if id, err = parseNode(node); err != nil {
				return Event{}, err
			}
		}
		rate := tail
		var from, to time.Duration
		if r, window, windowed := strings.Cut(tail, "@"); windowed {
			rate = r
			var err error
			if from, to, err = parseWindow(window); err != nil {
				return Event{}, err
			}
		}
		p, err := strconv.ParseFloat(rate, 64)
		if err != nil {
			return Event{}, err
		}
		return EEPROMErrors(id, p, from, to), nil
	case "randkill":
		count, window, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, fmt.Errorf("want randkill:COUNT@FROM-TO")
		}
		n, err := strconv.Atoi(count)
		if err != nil {
			return Event{}, err
		}
		from, to, err := parseWindow(window)
		if err != nil {
			return Event{}, err
		}
		return RandomCrashes(n, from, to), nil
	default:
		return Event{}, fmt.Errorf("unknown fault kind %q", kind)
	}
}

func parseNodeOrWildcard(s string) (packet.NodeID, error) {
	if strings.TrimSpace(s) == "*" {
		return Wildcard, nil
	}
	return parseNode(s)
}

func parseNode(s string) (packet.NodeID, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 0 || n >= int(Wildcard) {
		return 0, fmt.Errorf("bad node ID %q", s)
	}
	return packet.NodeID(n), nil
}

func parseRange(s string) (lo, hi int, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("want LO-HI node range, got %q", s)
	}
	if lo, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("bad range start %q", a)
	}
	if hi, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("bad range end %q", b)
	}
	if lo < 0 || hi < lo || hi >= int(Wildcard) {
		return 0, 0, fmt.Errorf("bad node range %d-%d", lo, hi)
	}
	return lo, hi, nil
}

func parseWindow(s string) (from, to time.Duration, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("want FROM-TO time window, got %q", s)
	}
	if from, err = time.ParseDuration(a); err != nil {
		return 0, 0, err
	}
	if to, err = time.ParseDuration(b); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}
