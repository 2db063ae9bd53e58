"""The reference optimum the cheap tests share: optimize_pulse's (g_max,
t_qst) at eta = 200 MHz, t_ramp = 2 ns and dt = 1 ps, frozen to four
decimals.  The acceptance suite and the goldens re-derive it from the seed."""

G_OPT, T_OPT = 37.6331, 21.9521  # MHz, ns
