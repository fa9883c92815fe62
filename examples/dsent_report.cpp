// DSENT-style component report: the detailed gate/wire/SRAM layer applied
// to the chip's building blocks, next to the calibrated coarse models the
// simulation uses. A sanity-check tool for anyone retuning the technology
// constants in common/params.hpp.
//
//   $ ./build/examples/dsent_report
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "phy/electrical_energy.hpp"
#include "phy/gates.hpp"
#include "power/cache_model.hpp"

using namespace atacsim;

int main() {
  const phy::TriGateModel dev{TechParams{}};
  const phy::StdCellLib lib(dev);

  std::printf("11 nm tri-gate standard cells (paper Table III)\n");
  std::printf("  tau (FO1)        : %.3f ps\n", lib.tau_ps());
  Table cells({"cell", "input cap (fF)", "self energy (fJ)", "leak (uW)"});
  const auto add_cell = [&](const char* n, const phy::Gate& g) {
    cells.add_row({n, Table::num(g.input_cap_fF, 3),
                   Table::num(g.self_energy_fJ(0.6), 3),
                   Table::num(lib.leakage_uW(g), 5)});
  };
  add_cell("INVx1", lib.inv(1));
  add_cell("INVx8", lib.inv(8));
  add_cell("NAND2x2", lib.nand2(2));
  add_cell("NOR2x2", lib.nor2(2));
  add_cell("DFFx1", lib.dff(1));
  cells.print(std::cout);

  std::printf("\nrepeated global wires (180 fF/mm, 2 kOhm/mm)\n");
  Table wires({"length (mm)", "repeaters", "size (x)", "delay (ps)",
               "energy (fJ/bit)"});
  for (double mm : {0.58, 2.0, 9.3, 18.6}) {
    const phy::RepeatedWire w(lib, mm, TechParams{}.wire_cap_fF_per_mm);
    wires.add_row({Table::num(mm, 2), std::to_string(w.num_repeaters()),
                   Table::num(w.repeater_size(), 1),
                   Table::num(w.delay_ps(), 1),
                   Table::num(w.energy_fJ_per_bit(), 1)});
  }
  wires.print(std::cout);

  std::printf("\nSRAM macros (structured) vs calibrated cache model\n");
  Table srams({"array", "read (pJ, detailed)", "read (pJ, coarse)",
               "leak (mW, detailed)", "leak (mW, coarse)", "delay (ps)"});
  struct Cfg {
    const char* name;
    int rows, cols, bits_read;
    power::CacheGeometry coarse;
  };
  const Cfg cfgs[] = {
      {"L1 32KB", 512, 512, 64 + 4 * 36, {32, 4, 64, 64, 36}},
      {"L2 256KB", 2048, 1024, 512 + 8 * 30, {256, 8, 64, 512, 30}},
  };
  for (const auto& c : cfgs) {
    const phy::SramMacro m(lib, c.rows, c.cols, 128);
    const power::CacheEnergyModel cm(dev, c.coarse);
    srams.add_row({c.name, Table::num(m.read_energy_fJ(c.bits_read) * 1e-3, 3),
                   Table::num(cm.read_pJ(), 3),
                   Table::num(m.leakage_uW() * 1e-3, 4),
                   Table::num(cm.leakage_mW(), 4),
                   Table::num(m.access_delay_ps(), 1)});
  }
  srams.print(std::cout);

  std::printf("\nmesh router (calibrated DSENT-lite, 5 ports, 64-bit)\n");
  const phy::RouterEnergyModel r(dev, 5, 64);
  std::printf("  per-flit energy  : %.3f pJ\n", r.per_flit_pJ());
  std::printf("  leakage / clock  : %.4f / %.4f mW\n", r.leakage_mW(),
              r.clock_mW(1.0));
  std::printf("  area             : %.4f mm^2\n", r.area_mm2());
  return 0;
}
