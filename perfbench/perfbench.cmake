# Build file of the benchmark's traced layer replay. run.py injects it
# into the simulator's own top-level configure through
# CMAKE_PROJECT_INCLUDE, so the program is built exactly as the
# repository builds it (same flags, same C++ standard, Release), and
# the replay becomes one more target of that tree. The target is
# created in a deferred call at the end of the top-level file, so it
# inherits every directory option the repository sets after
# project(); the header-inline stage code it times (detector bank,
# timeline) then compiles as it does in the program.
if(NOT PERFBENCH_HOOKED)
    set(PERFBENCH_HOOKED ON)
    set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
    function(perfbench_add_trace)
        add_executable(perfbench_trace ${PERFBENCH_DIR}/trace_layers.cc)
        target_link_libraries(perfbench_trace PRIVATE vsmooth
                                                      vsmooth_serve)
    endfunction()
    cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
                   CALL perfbench_add_trace)
endif()
