package deluge

import (
	"mnp/internal/node"
	"mnp/internal/protoreg"
)

// ApplyOptions overlays declarative option strings onto a Deluge
// configuration; unknown keys or malformed values are errors.
func ApplyOptions(cfg *Config, options map[string]string) error {
	o := protoreg.NewOpts(options)
	o.Int("page_packets", &cfg.PagePackets)
	o.Duration("data_interval", &cfg.DataInterval)
	o.Duration("request_delay_max", &cfg.RequestDelayMax)
	o.Duration("rx_timeout", &cfg.RxTimeout)
	o.Int("max_requests", &cfg.MaxRequests)
	o.Duration("trickle_tau_min", &cfg.Trickle.TauMin)
	o.Duration("trickle_tau_max", &cfg.Trickle.TauMax)
	o.Int("trickle_k", &cfg.Trickle.K)
	return o.Err()
}

func init() {
	protoreg.Register("deluge", "Deluge", func(b protoreg.Build) (node.Protocol, error) {
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
