package gossip

import (
	"mnp/internal/node"
	"mnp/internal/protoreg"
)

// ApplyOptions overlays declarative option strings onto a Gossip
// configuration; unknown keys or malformed values are errors.
func ApplyOptions(cfg *Config, options map[string]string) error {
	o := protoreg.NewOpts(options)
	o.Duration("adv_interval", &cfg.AdvInterval)
	o.Duration("adv_jitter", &cfg.AdvJitter)
	o.Duration("data_interval", &cfg.DataInterval)
	o.Duration("demand_ttl", &cfg.DemandTTL)
	return o.Err()
}

func init() {
	protoreg.Register("gossip", "Gossip", func(b protoreg.Build) (node.Protocol, error) {
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
