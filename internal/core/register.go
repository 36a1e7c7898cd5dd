package core

import (
	"mnp/internal/node"
	"mnp/internal/protoreg"
)

// ApplyOptions overlays declarative option strings onto an MNP
// configuration. It is the string-keyed face of Config used by
// scenario files and the protocol registry; unknown keys or malformed
// values are errors.
func ApplyOptions(cfg *Config, options map[string]string) error {
	o := protoreg.NewOpts(options)
	o.Int("advertise_count", &cfg.AdvertiseCount)
	o.Duration("advertise_interval", &cfg.AdvertiseInterval)
	o.Duration("max_advertise_interval", &cfg.MaxAdvertiseInterval)
	o.Duration("data_interval", &cfg.DataInterval)
	o.Duration("download_timeout", &cfg.DownloadTimeout)
	o.Float("sleep_factor", &cfg.SleepFactor)
	o.Bool("no_pipelining", &cfg.NoPipelining)
	o.Bool("no_upgrade", &cfg.NoUpgrade)
	o.Bool("no_sender_selection", &cfg.NoSenderSelection)
	o.Bool("no_sleep", &cfg.NoSleep)
	o.Bool("query_update", &cfg.QueryUpdate)
	o.Int("repair_threshold", &cfg.RepairThreshold)
	o.Bool("idle_duty_cycle", &cfg.IdleDutyCycle)
	o.Duration("idle_on_period", &cfg.IdleOnPeriod)
	o.Duration("idle_off_period", &cfg.IdleOffPeriod)
	o.Bool("battery_aware", &cfg.BatteryAware)
	o.Int("low_power", &cfg.LowPower)
	o.Float("battery_low_water", &cfg.BatteryLowWater)
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
