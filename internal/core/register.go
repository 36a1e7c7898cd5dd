package core

import (
	"mnp/internal/node"
	"mnp/internal/protoreg"
)

// ApplyOptions overlays declarative option strings onto an MNP
// configuration. It is the string-keyed face of Config used by
// scenario files and the protocol registry, and it carries only the
// knobs the paper's evaluation turns: the ablations A1–A3 and the
// energy extensions A4–A5. Unknown keys or malformed values are
// errors.
func ApplyOptions(cfg *Config, options map[string]string) error {
	o := protoreg.NewOpts(options)
	o.Bool("no_sender_selection", &cfg.NoSenderSelection)
	o.Bool("no_sleep", &cfg.NoSleep)
	o.Bool("query_update", &cfg.QueryUpdate)
	o.Bool("battery_aware", &cfg.BatteryAware)
	o.Bool("idle_duty_cycle", &cfg.IdleDutyCycle)
	return o.Err()
}

func init() {
	protoreg.Register("mnp", "MNP", func(b protoreg.Build) (node.Protocol, error) {
		cfg := DefaultConfig()
		if b.Base {
			cfg.Base = true
			cfg.Image = b.Image
		}
		if err := ApplyOptions(&cfg, b.Options); err != nil {
			return nil, err
		}
		return New(cfg), nil
	})
}
