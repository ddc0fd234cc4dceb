# Install and packaging rules: headers per substrate, static libraries,
# and a CMake package so downstream projects can `find_package(ramr)` and
# link `ramr::core` (which transitively pulls the substrates it needs).
include(GNUInstallDirs)
include(CMakePackageConfigHelpers)

set(RAMR_LIBRARIES
  ramr_common ramr_simd ramr_faults ramr_trace ramr_telemetry ramr_stats ramr_spsc
  ramr_topology ramr_sched ramr_containers ramr_engine ramr_io ramr_adapt
  ramr_service ramr_phoenix ramr_mrphi ramr_core ramr_perf ramr_apps
  ramr_synth ramr_sim)

foreach(lib ${RAMR_LIBRARIES})
  # Public headers keep their substrate-relative paths under include/ramr/.
  string(REPLACE "ramr_" "" substrate ${lib})
  install(DIRECTORY ${CMAKE_SOURCE_DIR}/src/${substrate}/
    DESTINATION ${CMAKE_INSTALL_INCLUDEDIR}/ramr/${substrate}
    FILES_MATCHING PATTERN "*.hpp")
  install(TARGETS ${lib} EXPORT ramrTargets
    ARCHIVE DESTINATION ${CMAKE_INSTALL_LIBDIR})
endforeach()
# The warnings interface target participates in the export set because the
# libraries link it privately at build time.
install(TARGETS ramr_warnings EXPORT ramrTargets)

install(EXPORT ramrTargets
  NAMESPACE ramr::
  DESTINATION ${CMAKE_INSTALL_LIBDIR}/cmake/ramr)

# Re-probe zlib in this scope: src/io's find_package result is directory-
# scoped, and the generated config must know whether ramr_io's link
# interface references ZLIB::ZLIB.
find_package(ZLIB QUIET)
configure_package_config_file(
  ${CMAKE_SOURCE_DIR}/cmake/ramrConfig.cmake.in
  ${CMAKE_BINARY_DIR}/ramrConfig.cmake
  INSTALL_DESTINATION ${CMAKE_INSTALL_LIBDIR}/cmake/ramr)
write_basic_package_version_file(
  ${CMAKE_BINARY_DIR}/ramrConfigVersion.cmake
  VERSION ${PROJECT_VERSION}
  COMPATIBILITY SameMajorVersion)
install(FILES
  ${CMAKE_BINARY_DIR}/ramrConfig.cmake
  ${CMAKE_BINARY_DIR}/ramrConfigVersion.cmake
  DESTINATION ${CMAKE_INSTALL_LIBDIR}/cmake/ramr)
