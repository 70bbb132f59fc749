package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/rcl"
	"hoyan/internal/serve"
)

// Every input below is drawn from the run's seed; the networks themselves are
// gen.WAN(k) at the generator's own fixed seed, so two seeds differ in the
// queries, plans, specs and arrivals they send, not in the WAN they ask about.

// corpus is the Figure 8 RCL corpus instantiated with the devices, prefixes,
// communities and next hops of a generated WAN.
func corpus(net *config.Network) []string {
	devices := []string{"rr-0-0", "border-0-0", "dc-0-1", "rr-1-0"}
	prefixes := []string{"10.0.0.0/24", "10.1.0.0/24", "20.0.0.0/24"}
	comms := []string{"65000:0", "65000:1", "65000:999"}
	nhs := []string{net.Devices["border-0-0"].Loopback.String(), net.Devices["dc-0-0"].Loopback.String()}
	return rcl.Corpus(devices, prefixes, comms, nhs)
}

// linkRefs names every link of the topology by its endpoints.
func linkRefs(net *config.Network) []serve.LinkRef {
	var out []serve.LinkRef
	for _, l := range net.Topo.Links() {
		out = append(out, serve.LinkRef{A: l.A, B: l.B})
	}
	return out
}

// deviceNames lists the network's devices in name order.
func deviceNames(net *config.Network) []string {
	names := make([]string, 0, len(net.Devices))
	for n := range net.Devices {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func withPrefix(names []string, prefix string) []string {
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	return out
}

// planPool draws n configuration-change plans, each written in its target
// device's own dialect: an ISP local-preference change on a border router
// (reroutes every ISP prefix), a new static route, or a maintenance touch
// that must leave routing unchanged. Every plan applies cleanly.
func planPool(net *config.Network, rnd *rand.Rand, n int) ([]*change.Plan, error) {
	names := deviceNames(net)
	borders := withPrefix(names, "border-")
	routers := append(withPrefix(names, "core-"), borders...)
	var out []*change.Plan
	for i := 0; i < n; i++ {
		p := &change.Plan{ID: fmt.Sprintf("plan-%d", i), Commands: map[string]string{}}
		switch i % 3 {
		case 0:
			dev := borders[rnd.Intn(len(borders))]
			pref := 120 + 10*rnd.Intn(5)
			p.Type = change.TrafficSteering
			if net.Devices[dev].Vendor == "beta" {
				p.Commands[dev] = fmt.Sprintf("route-policy RM_ISP_IN permit node 15\n apply local-preference %d\n#\nundo route-policy RM_ISP_IN permit node 20\n", pref)
			} else {
				p.Commands[dev] = fmt.Sprintf("route-map RM_ISP_IN permit 15\n set local-preference %d\n!\nno route-map RM_ISP_IN permit 20\n", pref)
			}
		case 1:
			dev := routers[rnd.Intn(len(routers))]
			nh := net.Devices[names[rnd.Intn(len(names))]].Loopback
			prefix := fmt.Sprintf("198.51.%d.0/24", rnd.Intn(250))
			p.Type = change.StaticRouteModify
			if net.Devices[dev].Vendor == "beta" {
				p.Commands[dev] = fmt.Sprintf("ip route-static %s %s\n", prefix, nh)
			} else {
				p.Commands[dev] = fmt.Sprintf("ip route %s %s\n", prefix, nh)
			}
		default:
			p.Type = change.OSPatch
			p.Commands[routers[rnd.Intn(len(routers))]] = "isis enable\n"
		}
		if _, err := p.Apply(net); err != nil {
			return nil, fmt.Errorf("plan %s does not apply: %w", p.ID, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](rnd *rand.Rand, xs []T) []T {
	out := slices.Clone(xs)
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// dealer deals xs in a seeded order, reshuffling after each full pass.
func dealer[T any](rnd *rand.Rand, xs []T) func() T {
	var deck []T
	return func() T {
		if len(deck) == 0 {
			deck = shuffled(rnd, xs)
		}
		x := deck[0]
		deck = deck[1:]
		return x
	}
}
