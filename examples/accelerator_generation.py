"""End-to-end accelerator generation (the full ORIANNA flow, Fig. 2).

1. Build the Quadrotor application (localization + planning + control).
2. Compile every algorithm into one merged matrix-operation program.
3. Generate an accelerator under a ZC706 resource budget (Equ. 5).
4. Auto-generate the datapath between units from the instruction flow.
5. Simulate in-order vs out-of-order execution and compare with the
   Intel / ARM / GPU baselines.

Run:  python examples/accelerator_generation.py
"""

from repro.apps import quadrotor
from repro.baselines import ARM, INTEL, TX1_GPU
from repro.compiler import Opcode
from repro.hw import ZC706, generate_accelerator, generate_datapath
from repro.sim import Simulator, render_timeline


def main():
    app = quadrotor()
    print(f"application: {app.name} with algorithms "
          f"{', '.join(app.algorithm_names)}")

    # --- compile ------------------------------------------------------
    program = app.compile_frame(seed=0)
    counts = program.count_by_opcode()
    print(f"\ncompiled one frame: {len(program)} instructions, "
          f"{program.critical_path_length()} dependency levels")
    top = sorted(counts.items(), key=lambda kv: -kv[1])[:8]
    print("  opcode mix: " + ", ".join(f"{op.value}:{n}" for op, n in top))

    # --- generate hardware (Equ. 5) ------------------------------------
    print("\ngenerating accelerator under the ZC706 budget...")
    generated = generate_accelerator(program, ZC706, objective="latency")
    config = generated.config
    print(f"  result: {config.describe()}")
    print(f"  search: {generated.num_steps} greedy unit additions")
    res = config.resources()
    print(f"  resources: {res.lut} LUT, {res.ff} FF, {res.bram} BRAM, "
          f"{res.dsp} DSP  (budget {ZC706.dsp} DSP)")

    # --- auto-generated datapath ---------------------------------------
    datapath = generate_datapath(program)
    print(f"\ngenerated datapath ({len(datapath.connections)} connections, "
          f"peak live set {datapath.buffer_words_peak} words):")
    for line in datapath.describe():
        print("  " + line)

    # --- simulate -------------------------------------------------------
    sim = Simulator(config)
    ooo = sim.run(program, "ooo")
    io = sim.run(program, "sequential")
    print(f"\nORIANNA-OoO: {ooo.time_ms:.3f} ms, {ooo.energy_mj:.3f} mJ")
    print(f"ORIANNA-IO:  {io.time_ms:.3f} ms, {io.energy_mj:.3f} mJ "
          f"(OoO is {io.total_cycles / ooo.total_cycles:.1f}x faster)")
    print("\n" + render_timeline(program, ooo))
    print("\n" + render_timeline(program, io))

    # --- baselines -------------------------------------------------------
    print("\nbaselines on the same frame:")
    for model in (INTEL, ARM, TX1_GPU):
        r = model.estimate(program)
        print(f"  {model.name:>6}: {r.time_ms:8.3f} ms "
              f"({r.time_ms / ooo.time_ms:6.1f}x slower), "
              f"{r.energy_mj:8.3f} mJ "
              f"({r.energy_mj / ooo.energy_mj:6.1f}x more energy)")


if __name__ == "__main__":
    main()
