"""The smallest possible run: two nodes, one initiator, no drift.

Node 0 starts at t=0 and attaches its clock value to the periodic
application traffic. Node 1 wakes on the first payload at t=1; whether it
also processes that payload decides whether it starts one threshold behind
or perfectly aligned.
"""

from dataclasses import replace

from gradsync import compute_report, preset, run

for process_on_start in (True, False):
    config = replace(preset("two_node"), process_on_start=process_on_start)
    trace = run(config)
    report = compute_report(trace)
    print(f"process_on_start={process_on_start}")
    print("  t      node0    node1")
    for t, (v0, v1) in zip(trace.sample_times, trace.logical.T):
        v1_text = f"{v1:7.3f}" if v1 == v1 else "   (off)"
        print(f"  {t:4.1f} {v0:8.3f} {v1_text}")
    print(
        f"  max skew {report.max_global_skew:.3f} between pair "
        f"{report.attaining_pair} at t={report.attaining_time}"
    )
    print()

print("with processing, the waking payload pulls node 1 straight to node 0's")
print("value; without it, node 1 trails by one send period until the next message.")
