/// \file
/// Table III: the supported AuT component setups, each mapped to the
/// class in this repository that realizes it. The rows are verified by
/// instantiating every component.

#include <iostream>

#include "common/bench_util.hpp"
#include "common/table.hpp"
#include "energy/energy_controller.hpp"
#include "hw/accelerator.hpp"
#include "hw/msp430_lea.hpp"

int
main()
{
    using namespace chrysalis;
    bench::print_banner("Table III",
                        "Supported AuT component setups of CHRYSALIS, "
                        "with the realizing class in this repository.");

    // Instantiate each realization to prove the row is real.
    const energy::SolarPanel panel(
        8.0, std::make_shared<energy::ConstantSolarEnvironment>(2e-3,
                                                                "check"));
    const energy::Capacitor capacitor{energy::Capacitor::Config{}};
    const energy::PowerManagementIc pmic{
        energy::PowerManagementIc::Config{}};
    const hw::Msp430Lea mcu;
    hw::ReconfigurableAccelerator::Config tpu_config;
    tpu_config.arch = hw::AcceleratorArch::kTpu;
    const hw::ReconfigurableAccelerator tpu(tpu_config);
    hw::ReconfigurableAccelerator::Config eye_config;
    eye_config.arch = hw::AcceleratorArch::kEyeriss;
    const hw::ReconfigurableAccelerator eyeriss(eye_config);

    TextTable table({"Subsys.", "Component", "Realization",
                     "Base model (paper)", "Class in this repo"});
    table.add_row({"EH", "Energy Harvester", "Solar Panel",
                   "pvlib [27]",
                   "energy::SolarPanel + Diurnal/Markov env"});
    table.add_row({"EH", "EH Controller", "Power Management IC",
                   "BQ25570 [65]", "energy::PowerManagementIc"});
    table.add_row({"EH", "Capacitor", "Electrolytic Capacitor",
                   "Physics Model", "energy::Capacitor (Eq. 2)"});
    table.add_row({"Infer", "Infer Controller", "Microcontroller Unit",
                   "MSP430 [66]", "sim::simulate_inference"});
    table.add_row({"Infer", "Strategy", "Tile Partition, ckpt.",
                   "iNAS-like [49]",
                   "dataflow::LayerMapping (InterTempMap)"});
    table.add_row({"Infer", "Accelerator & Mapper", "Existing AuT setup",
                   "MSP430FR5994 / iNAS", "hw::Msp430Lea"});
    table.add_row({"Infer", "Accelerator & Mapper", "Future AuT setup",
                   "CHRYSALIS-MAESTRO / CHRYSALIS-GAMMA",
                   "hw::ReconfigurableAccelerator + "
                   "search::GeometryTable/MappingGrid"});
    table.print(std::cout);

    std::cout << "\nInstantiated realizations:\n"
              << "  " << panel.name() << " -> "
              << panel.power(0.0) * 1e3 << " mW at t=0\n"
              << "  capacitor C=" << capacitor.config().capacitance_f * 1e6
              << " uF, PMIC U_on=" << pmic.v_on() << " V\n"
              << "  " << mcu.describe() << "\n"
              << "  " << tpu.describe() << "\n"
              << "  " << eyeriss.describe() << "\n";
    return 0;
}
