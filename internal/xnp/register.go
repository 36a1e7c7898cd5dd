package xnp

import (
	"mnp/internal/node"
	"mnp/internal/protoreg"
)

// ApplyOptions overlays declarative option strings onto an XNP
// configuration; unknown keys or malformed values are errors.
func ApplyOptions(cfg *Config, options map[string]string) error {
	o := protoreg.NewOpts(options)
	o.Duration("data_interval", &cfg.DataInterval)
	o.Duration("query_interval", &cfg.QueryInterval)
	o.Duration("status_delay_max", &cfg.StatusDelayMax)
	o.Int("max_quiet_rounds", &cfg.MaxQuietRounds)
	return o.Err()
}

func init() {
	protoreg.Register("xnp", "XNP", func(b protoreg.Build) (node.Protocol, error) {
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
